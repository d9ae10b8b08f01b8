// Fixture for tools/emerald_analyze.py: serializable-coverage.
//
// A header, because the rule reads only headers: that is where a
// SimObject subclass declares its serialize(CheckpointIo&) override.

#ifndef EMERALD_FIXTURE_SERIALIZABLE_COVERAGE_HH
#define EMERALD_FIXTURE_SERIALIZABLE_COVERAGE_HH

class CheckpointIo;

class SimObject
{
  public:
    virtual ~SimObject() = default;
    virtual void serialize(CheckpointIo &io) { (void)io; }
};

class DramQueue : public SimObject
{
  public:
    void serialize(CheckpointIo &io) override; // clean
};

class Forgetful : public SimObject // EXPECT: serializable-coverage
{
  private:
    unsigned long _pending = 0;
};

#endif // EMERALD_FIXTURE_SERIALIZABLE_COVERAGE_HH
