// Fixture for tools/emerald_analyze.py: raw-print.
//
// src/ reports through logging.hh and stats, not the console, so its
// output stays machine-parseable. printf comes from <cstdio>; the
// iostreams are stand-ins.

#include <cstdio>

namespace std
{
struct ostream {
    ostream &
    operator<<(const char *text)
    {
        (void)text;
        return *this;
    }
};

extern ostream cout;
extern ostream cerr;
} // namespace std

void
report(int hits, std::FILE *log)
{
    printf("hits %d\n", hits); // EXPECT: raw-print
    std::cout << "hits"; // EXPECT: raw-print
    std::cerr << "misses"; // EXPECT: raw-print
    std::fprintf(log, "hits %d\n", hits); // to a FILE*: clean
    char buf[16];
    std::snprintf(buf, sizeof buf, "%d", hits); // formatting: clean
}
