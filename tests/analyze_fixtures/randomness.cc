// Fixture for tools/emerald_analyze.py: randomness.
//
// All randomness flows through sim/random.hh so a run replays from
// one seed. The C library generator comes from <cstdlib>; the two
// C++ engines are stand-ins.

#include <cstdlib>

namespace std
{
struct mt19937 {
    explicit mt19937(unsigned seed) { (void)seed; }
    unsigned operator()() { return 1; }
};

struct random_device {
    unsigned operator()() { return 4; }
};
} // namespace std

unsigned
operand(unsigned x)
{
    return x;
}

unsigned
drawAll(unsigned seed)
{
    srand(seed); // EXPECT: randomness
    unsigned sum = static_cast<unsigned>(rand()); // EXPECT: randomness
    std::mt19937 gen(seed); // EXPECT: randomness
    std::random_device dev; // EXPECT: randomness
    return sum + gen() + dev() + operand(seed); // "rand" in a name: clean
}
