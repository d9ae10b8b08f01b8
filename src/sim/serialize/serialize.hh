/**
 * @file
 * Versioned, schema-checked checkpointing (gem5 Serialize in spirit).
 *
 * A checkpoint is a directory: `manifest.json` (format version, config
 * fingerprint, tick, and a section table) plus `data.bin` (the
 * concatenated binary sections). Each stateful object writes one
 * section of typed key/value records through CheckpointOut and reads
 * it back through CheckpointIn. Reads are strict: a missing key or a
 * type mismatch is fatal, never a silently default-initialized member
 * — schema drift between the writer and the reader must fail loudly
 * (see docs/checkpointing.md for the compatibility rules).
 */

#ifndef EMERALD_SIM_SERIALIZE_SERIALIZE_HH
#define EMERALD_SIM_SERIALIZE_SERIALIZE_HH

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace emerald
{

/** On-disk record payload types. The tag byte is part of the format. */
enum class RecordType : std::uint8_t
{
    U64 = 0,
    I64 = 1,
    F64 = 2,
    Bool = 3,
    Str = 4,
    Blob = 5,
    U64Vec = 6,
    F64Vec = 7,
};

/**
 * Bump on any incompatible change to the record or manifest format.
 * Version 2 added a per-section CRC-32 to the manifest's section
 * table; the reader still accepts version-1 checkpoints (no CRC
 * entries, so integrity verification is skipped for them).
 */
constexpr std::uint64_t checkpointFormatVersion = 2;

/** Oldest manifest format this binary still reads. */
constexpr std::uint64_t checkpointMinReadVersion = 1;

/** CRC-32 (IEEE, reflected polynomial 0xEDB88320) of @p n bytes. */
std::uint32_t crc32(const void *bytes, std::size_t n);

/**
 * What probeCheckpoint() found. Everything except Ok is a recoverable
 * condition: the caller (rotation-aware restore, the run supervisor)
 * skips the damaged checkpoint and falls back to an older one or a
 * cold start instead of aborting.
 */
enum class CkptIntegrity : std::uint8_t
{
    Ok,
    /** No manifest.json — not a checkpoint directory (or torn). */
    MissingManifest,
    /** manifest.json exists but does not parse or lacks fields. */
    MalformedManifest,
    /** Format version outside [min read, current]. */
    UnsupportedVersion,
    /** manifest.json is fine but data.bin is absent. */
    MissingData,
    /** A section extends past the end of data.bin. */
    TruncatedSection,
    /** A section's bytes do not match its manifest CRC. */
    CrcMismatch,
};

/** Stable lower-case name ("ok", "crc-mismatch", ...) for logs/DBs. */
const char *ckptIntegrityName(CkptIntegrity status);

/** Result of a non-fatal checkpoint integrity probe. */
struct CkptProbe
{
    CkptIntegrity status = CkptIntegrity::MissingManifest;
    /** Human-readable diagnosis (names the section / parse error). */
    std::string detail;
    std::uint64_t fingerprint = 0;
    Tick tick = 0;
    std::uint64_t numProcessed = 0;

    bool ok() const { return status == CkptIntegrity::Ok; }
};

/**
 * Inspect the checkpoint directory @p dir without restoring from it:
 * parse the manifest, bounds-check every section against data.bin and
 * verify each section's CRC (format >= 2). Never fatal — a truncated
 * or corrupt checkpoint comes back as a typed, diagnosable status so
 * recovery code can skip it.
 */
CkptProbe probeCheckpoint(const std::string &dir);

/**
 * The auto-<tick> rotation directories under @p base, sorted by path:
 * oldest first within one directory, since the zero-padded tick in
 * the name makes name order tick order. With @p recursive, rotations
 * nested in subdirectories of @p base count too (benches that build
 * one simulation per config rotate under <base>/<label>/). A missing
 * @p base lists nothing.
 */
std::vector<std::string> listRotations(const std::string &base,
                                       bool recursive = false);

/**
 * One section being written: an append-only stream of typed key/value
 * records. Keys must be unique within a section (fatal otherwise) so a
 * checkpoint can never carry two conflicting values for one field.
 */
class CheckpointOut
{
  public:
    explicit CheckpointOut(std::string section_name)
        : _section(std::move(section_name))
    {}

    const std::string &sectionName() const { return _section; }

    void putU64(const std::string &key, std::uint64_t v);
    void putI64(const std::string &key, std::int64_t v);
    void putF64(const std::string &key, double v);
    void putBool(const std::string &key, bool v);
    void putStr(const std::string &key, const std::string &v);
    void putBlob(const std::string &key, const void *bytes,
                 std::size_t n);
    void putU64Vec(const std::string &key,
                   const std::vector<std::uint64_t> &v);
    void putF64Vec(const std::string &key,
                   const std::vector<double> &v);

    /** Convenience: a Tick is stored as U64. */
    void putTick(const std::string &key, Tick v) { putU64(key, v); }

    /** Raw encoded bytes (CheckpointWriter concatenates these). */
    const std::string &bytes() const { return _buf; }

    /** Records written so far. */
    std::size_t numRecords() const { return _numRecords; }

  private:
    void header(const std::string &key, RecordType type);
    void raw(const void *bytes, std::size_t n);

    std::string _section;
    std::string _buf;
    std::map<std::string, RecordType> _seen;
    std::size_t _numRecords = 0;
};

/**
 * One parsed section. Every accessor is schema-checked: asking for a
 * key that is absent, or with the wrong type, is fatal and names the
 * section and key. Restore paths therefore never limp along with
 * half-initialized state.
 */
class CheckpointIn
{
  public:
    /** Decode @p bytes (fatal on truncation or a bad type tag). */
    CheckpointIn(std::string section_name, const char *bytes,
                 std::size_t n);

    const std::string &sectionName() const { return _section; }

    bool has(const std::string &key) const
    {
        return _records.count(key) != 0;
    }

    std::uint64_t getU64(const std::string &key) const;
    std::int64_t getI64(const std::string &key) const;
    double getF64(const std::string &key) const;
    bool getBool(const std::string &key) const;
    std::string getStr(const std::string &key) const;
    const std::string &getBlob(const std::string &key) const;
    std::vector<std::uint64_t> getU64Vec(const std::string &key) const;
    std::vector<double> getF64Vec(const std::string &key) const;

    Tick getTick(const std::string &key) const { return getU64(key); }

    std::size_t numRecords() const { return _records.size(); }

  private:
    struct Record
    {
        RecordType type;
        std::string payload;
    };

    const Record &fetch(const std::string &key, RecordType want) const;

    std::string _section;
    std::map<std::string, Record> _records;
};

/**
 * Interface of every checkpointable object. SimObject derives from
 * this, so all components inherit no-op defaults; the
 * serializable-coverage rule of tools/emerald_analyze.py flags
 * SimObject subclasses that keep the default without being
 * allowlisted as stateless in tools/analyze_allowlist.txt.
 */
class Serializable
{
  public:
    virtual ~Serializable() = default;

    /** Write this object's dynamic state into @p out. */
    virtual void serialize(CheckpointOut &out) const { (void)out; }

    /** Restore this object's dynamic state from @p in. */
    virtual void unserialize(CheckpointIn &in) { (void)in; }

    /**
     * True when the object is at a state it can serialize. Objects
     * with transient mid-operation state that cannot round-trip (an
     * open graphics frame, a busy SIMT core) return false and the
     * checkpoint trigger waits for a quiescent inter-event point.
     */
    virtual bool checkpointSafe() const { return true; }
};

/**
 * Accumulates named sections and writes the checkpoint directory
 * (manifest.json + data.bin) in finalize(). Section names must be
 * unique; the writer owns the section buffers, and a section returned
 * by section() stays valid while later sections open.
 */
class CheckpointWriter
{
  public:
    CheckpointWriter(std::string dir, std::uint64_t config_fingerprint,
                     Tick tick, std::uint64_t num_processed);
    ~CheckpointWriter();

    CheckpointWriter(const CheckpointWriter &) = delete;
    CheckpointWriter &operator=(const CheckpointWriter &) = delete;

    /** Start a new section named @p name (fatal on duplicates). */
    CheckpointOut &section(const std::string &name);

    /** Write manifest.json + data.bin; implicit in the destructor. */
    void finalize();

    const std::string &dir() const { return _dir; }

  private:
    std::string _dir;
    std::uint64_t _fingerprint;
    Tick _tick;
    std::uint64_t _numProcessed;
    std::deque<CheckpointOut> _sections;
    bool _finalized = false;
};

/**
 * Opens a checkpoint directory, validates the manifest (format
 * version must match checkpointFormatVersion) and serves sections.
 * The config-fingerprint policy belongs to the caller (Simulation
 * refuses a mismatch unless --restore-force).
 */
class CheckpointReader
{
  public:
    explicit CheckpointReader(const std::string &dir);

    std::uint64_t configFingerprint() const { return _fingerprint; }
    Tick tick() const { return _tick; }
    std::uint64_t numProcessed() const { return _numProcessed; }

    bool hasSection(const std::string &name) const;

    /** Decode section @p name (fatal when absent). */
    CheckpointIn section(const std::string &name) const;

    const std::string &dir() const { return _dir; }

  private:
    struct SectionRef
    {
        std::size_t offset;
        std::size_t size;
    };

    std::string _dir;
    std::uint64_t _fingerprint = 0;
    Tick _tick = 0;
    std::uint64_t _numProcessed = 0;
    std::map<std::string, SectionRef> _sections;
    std::string _data;
};

} // namespace emerald

#endif // EMERALD_SIM_SERIALIZE_SERIALIZE_HH
