// Fixture for tools/emerald_analyze.py: offer-checked (dropped
// offer() result) and sched-factory (scheduling policy constructed
// outside its factory).

class MemPacket;

class MemRequestor
{
};

class MemSink
{
  public:
    bool
    offer(MemPacket *pkt, MemRequestor &req)
    {
        (void)pkt;
        (void)req;
        return false;
    }
};

class FrfcfsScheduler
{
  public:
    int pick() { return 0; }
};

bool
drive(MemSink &sink, MemPacket *pkt, MemRequestor &req)
{
    sink.offer(pkt, req); // EXPECT: offer-checked
    bool ok = sink.offer(pkt, req); // result used: clean
    auto *sched = new FrfcfsScheduler(); // EXPECT: sched-factory
    delete sched;
    return ok;
}
