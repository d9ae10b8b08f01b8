// Fixture for tools/emerald_analyze.py: serializable-coverage.
//
// A header, because the rule reads only headers: that is where a
// SimObject subclass declares its serialize(CheckpointOut&) override.

#ifndef EMERALD_FIXTURE_SERIALIZABLE_COVERAGE_HH
#define EMERALD_FIXTURE_SERIALIZABLE_COVERAGE_HH

class CheckpointOut;

class SimObject
{
  public:
    virtual ~SimObject() = default;
    virtual void serialize(CheckpointOut &cp) const { (void)cp; }
};

class DramQueue : public SimObject
{
  public:
    void serialize(CheckpointOut &cp) const override; // clean
};

class Forgetful : public SimObject // EXPECT: serializable-coverage
{
  private:
    unsigned long _pending = 0;
};

#endif // EMERALD_FIXTURE_SERIALIZABLE_COVERAGE_HH
