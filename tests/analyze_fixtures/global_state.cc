// Fixture for tools/emerald_analyze.py: global-mutable-state.
//
// Each `// EXPECT: <rule>` annotation marks a line the analyzer must
// flag with exactly that rule; every other line must stay clean.
// Every whole-tree analyzer run compares both directions under its
// engine before it scans src/.

namespace fix
{

int g_counter = 0;          // EXPECT: global-mutable-state
static bool g_flag = false; // EXPECT: global-mutable-state

const int k_limit = 8;
constexpr int k_size = 4;

int
nextId()
{
    static int next = 0; // EXPECT: global-mutable-state
    return ++next;
}

struct Counter {
    static int instances; // EXPECT: global-mutable-state
    int value = 0;
};

int
bump(Counter &c)
{
    int local = 0; // locals are per-frame: clean
    local += c.value;
    return local;
}

} // namespace fix
