/**
 * @file
 * Versioned, schema-checked checkpointing (gem5 Serialize in spirit).
 *
 * A checkpoint is a directory holding one file, `data.bin`:
 *
 *   header    16 bytes: magic "EMCK", then the format version, the
 *             index size and the index's CRC-32 (u32 little-endian)
 *   index     typed records: config fingerprint, tick, events
 *             processed, and the section table (each section's name,
 *             size and CRC-32, in file order)
 *   sections  the sections, back to back
 *
 * Each stateful object lists its state once in
 * serialize(CheckpointIo &), which writes one section of typed
 * key/value records into a CheckpointOut and reads it back from a
 * CheckpointIn; the index, and the draw-call and traffic traces that
 * share this container, list theirs through CheckpointIo too. Reads are
 * strict: a missing key or a type mismatch is fatal, never a silently
 * default-initialized member — schema drift between the writer and
 * the reader must fail loudly (see docs/checkpointing.md for the
 * compatibility rules).
 */

#ifndef EMERALD_SIM_SERIALIZE_SERIALIZE_HH
#define EMERALD_SIM_SERIALIZE_SERIALIZE_HH

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
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
 * Bump on any incompatible change to the record or container format;
 * the reader accepts only this version. Version 3 moved the identity
 * and the section table from a JSON manifest into data.bin's index.
 */
constexpr std::uint64_t checkpointFormatVersion = 3;

/** CRC-32 (IEEE, reflected polynomial 0xEDB88320) of @p n bytes. */
std::uint32_t crc32(const void *bytes, std::size_t n);

/**
 * What CheckpointReader::open() found. Everything except Ok is a
 * recoverable condition: the caller (rotation-aware restore, the run
 * supervisor) skips the damaged checkpoint and falls back to an older
 * one or a cold start instead of aborting.
 */
enum class CkptIntegrity : std::uint8_t
{
    Ok,
    /** No data.bin — not a checkpoint directory (or torn). */
    MissingData,
    /** data.bin has no header of this binary's format version. */
    UnsupportedVersion,
    /** data.bin ends inside its header, its index or a section. */
    TruncatedSection,
    /** The index or a section does not match its CRC-32. */
    CrcMismatch,
    /** data.bin runs on past its last section. */
    TrailingBytes,
};

/** Stable lower-case name ("ok", "crc-mismatch", ...) for logs/DBs. */
const char *ckptIntegrityName(CkptIntegrity status);

/** Result of a non-fatal checkpoint integrity check. */
struct CkptProbe
{
    CkptIntegrity status = CkptIntegrity::MissingData;
    /** Human-readable diagnosis (names the damaged part). */
    std::string detail;
    std::uint64_t fingerprint = 0;
    Tick tick = 0;
    std::uint64_t numProcessed = 0;

    bool ok() const { return status == CkptIntegrity::Ok; }
};

/** CheckpointReader::open()'s status for @p dir; never fatal. */
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

/** @{ The format's little-endian integer fields, @p bytes wide. */
inline void
appendLE(std::string &buf, std::uint64_t v, unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i)
        buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

inline std::uint64_t
readLE(const char *p, unsigned bytes)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < bytes; ++i)
        v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
             << (8 * i);
    return v;
}
/** @} */

/**
 * One section being written: an append-only stream of typed key/value
 * records, which CheckpointIo encodes. Keys must be unique within a
 * section (fatal otherwise) so a checkpoint can never carry two
 * conflicting values for one field.
 */
class CheckpointOut
{
  public:
    explicit CheckpointOut(std::string section_name)
        : _section(std::move(section_name))
    {}

    const std::string &sectionName() const { return _section; }

    /** Start record @p key of @p type; its payload goes on the end. */
    std::string &record(const std::string &key, RecordType type);

    /** Raw encoded bytes (CheckpointWriter concatenates these). */
    const std::string &bytes() const { return _buf; }

  private:
    std::string _section;
    std::string _buf;
    std::set<std::string> _seen;
};

/**
 * One parsed section, which CheckpointIo decodes. Asking for a key
 * that is absent, or with the wrong type, is fatal and names the
 * section and key, so restore paths never limp along with
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

    /** Record @p key's payload, which must be of @p type. */
    const std::string &record(const std::string &key,
                              RecordType type) const;

  private:
    struct Record
    {
        RecordType type;
        std::string payload;
    };

    std::string _section;
    std::map<std::string, Record> _records;
};

class CheckpointIo;

/**
 * Interface of every checkpointable object. SimObject derives from
 * this, so all components inherit a no-op default; the
 * serializable-coverage rule of tools/emerald_analyze.py flags
 * SimObject subclasses that keep the default without being
 * allowlisted as stateless in tools/analyze_allowlist.txt.
 */
class Serializable
{
  public:
    virtual ~Serializable() = default;

    /**
     * List this object's dynamic state, each field once: saving
     * writes it into @p io, loading reads it back
     * (sim/serialize/checkpoint_io.hh).
     */
    virtual void serialize(CheckpointIo &io) { (void)io; }

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
 * (its data.bin) in finalize(). Section names must be unique; the
 * writer owns the section buffers, and a section returned by
 * section() stays valid while later sections open.
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

    /** Write data.bin; implicit in the destructor. */
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
 * Opens a checkpoint directory and serves sections. Opening reads
 * data.bin once and validates it, in file order: the header's format
 * version, the index's bounds and CRC, then each section's bounds and
 * CRC; the index is decoded only once its CRC holds. The
 * config-fingerprint policy belongs to the caller (Simulation refuses
 * a mismatch unless --restore-force).
 */
class CheckpointReader
{
  public:
    /** Open @p dir; any damage is fatal and names it. */
    explicit CheckpointReader(const std::string &dir);

    /** The non-fatal form: nullopt unless @p probe comes back ok. */
    static std::optional<CheckpointReader>
    open(const std::string &dir, CkptProbe &probe);

    std::uint64_t configFingerprint() const { return _fingerprint; }
    Tick tick() const { return _tick; }
    std::uint64_t numProcessed() const { return _numProcessed; }

    bool hasSection(const std::string &name) const;

    /** Decode section @p name (fatal when absent). */
    CheckpointIn section(const std::string &name) const;

    const std::string &dir() const { return _dir; }

  private:
    CheckpointReader() = default;

    /** Read and validate _dir into this reader; what it found. */
    CkptProbe load();

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
