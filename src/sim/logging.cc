#include "sim/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace emerald
{

std::string
vstrprintf(const char *fmt, va_list args)
{
    va_list args_copy;
    va_copy(args_copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (needed < 0)
        return std::string("<format error>");
    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<size_t>(needed));
}

std::string
strprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string result = vstrprintf(fmt, args);
    va_end(args);
    return result;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vstrprintf(fmt, args);
    va_end(args);
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vstrprintf(fmt, args);
    va_end(args);
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vstrprintf(fmt, args);
    va_end(args);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vstrprintf(fmt, args);
    va_end(args);
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace emerald
