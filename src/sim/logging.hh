/**
 * @file
 * Error and status reporting, following the gem5 fatal/panic convention.
 *
 * panic()  - an internal simulator bug: something that should never
 *            happen regardless of user input. Aborts.
 * fatal()  - the simulation cannot continue because of a user error
 *            (bad configuration, invalid arguments). Exits with an
 *            error code.
 * warn()   - functionality that may not behave exactly as intended.
 * inform() - normal operating status messages.
 */

#ifndef EMERALD_SIM_LOGGING_HH
#define EMERALD_SIM_LOGGING_HH

#include <cstdarg>
#include <string>

namespace emerald
{

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** printf-style formatting from a va_list. */
std::string vstrprintf(const char *fmt, va_list args);

/**
 * Escape @p s for embedding inside a JSON string literal (quotes,
 * backslashes and control characters). Used by the stats JSON dumper
 * and the Chrome-trace event tracer.
 */
std::string jsonEscape(const std::string &s);

[[noreturn]] void panicImpl(const char *file, int line, const char *fmt,
                            ...) __attribute__((format(printf, 3, 4)));

[[noreturn]] void fatalImpl(const char *file, int line, const char *fmt,
                            ...) __attribute__((format(printf, 3, 4)));

void warnImpl(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

void informImpl(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace emerald

#define panic(...) ::emerald::panicImpl(__FILE__, __LINE__, __VA_ARGS__)
#define fatal(...) ::emerald::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)
#define warn(...) ::emerald::warnImpl(__VA_ARGS__)
#define inform(...) ::emerald::informImpl(__VA_ARGS__)

/** panic() unless @p cond holds. */
#define panic_if(cond, ...)                                               \
    do {                                                                  \
        if (cond)                                                         \
            panic(__VA_ARGS__);                                           \
    } while (0)

/** fatal() unless @p cond holds. */
#define fatal_if(cond, ...)                                               \
    do {                                                                  \
        if (cond)                                                         \
            fatal(__VA_ARGS__);                                           \
    } while (0)

#endif // EMERALD_SIM_LOGGING_HH
