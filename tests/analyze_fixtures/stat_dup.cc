// Fixture for tools/emerald_analyze.py: stat-dup.
//
// Two stats registered with one name on one parent silently shadow
// each other in the dumps.

struct StatGroup {
};

struct Scalar {
    Scalar(StatGroup *parent, const char *name, const char *desc)
    {
        (void)parent;
        (void)name;
        (void)desc;
    }
};

class CacheStats : public StatGroup
{
  public:
    CacheStats()
        : hits(this, "hits", "demand hits"),
          misses(this, "misses", "demand misses"), // new name: clean
          fills(this, "hits", "line fills") // EXPECT: stat-dup
    {
    }

    Scalar hits;
    Scalar misses;
    Scalar fills;
};
