// Fixture for tools/emerald_analyze.py: fatal-exit.
//
// src/ terminates through panic()/fatal() (logging.hh), so every
// abort flushes stats and prints a diagnosed report.

#include <cstdlib>

int
onExitCode(int code)
{
    return code;
}

void
bail(int code)
{
    if (code == 1)
        abort(); // EXPECT: fatal-exit
    if (code == 2)
        std::exit(code); // EXPECT: fatal-exit
    if (code == 3)
        _Exit(code); // EXPECT: fatal-exit
    if (code == 4)
        std::quick_exit(code); // EXPECT: fatal-exit
    onExitCode(code); // "Exit" in a name: clean
}
