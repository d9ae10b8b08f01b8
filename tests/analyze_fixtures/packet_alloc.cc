// Fixture for tools/emerald_analyze.py: packet-alloc.
//
// Packets come from the pool: a raw `new MemPacket` or `delete` of a
// packet bypasses the pool's stats and the lifecycle checkers.

struct MemPacket {
    unsigned long addr = 0;
};

class PacketPool
{
  public:
    MemPacket *alloc() { return &_slot; }
    void release(MemPacket *pkt) { (void)pkt; }

  private:
    MemPacket _slot;
};

void
roundTrip(PacketPool &pool)
{
    MemPacket *pkt = new MemPacket(); // EXPECT: packet-alloc
    delete pkt; // EXPECT: packet-alloc
    MemPacket *pooled = pool.alloc(); // from the pool: clean
    pool.release(pooled);
}
