#include "sim/serialize/serialize.hh"

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>

#include "sim/logging.hh"
#include "sim/serialize/checkpoint_io.hh"

namespace emerald
{

namespace
{

const char *
recordTypeName(RecordType t)
{
    switch (t) {
    case RecordType::U64: return "u64";
    case RecordType::I64: return "i64";
    case RecordType::F64: return "f64";
    case RecordType::Bool: return "bool";
    case RecordType::Str: return "str";
    case RecordType::Blob: return "blob";
    case RecordType::U64Vec: return "u64vec";
    case RecordType::F64Vec: return "f64vec";
    }
    return "?";
}

/** data.bin's header: magic, format version, index size, index CRC. */
constexpr char headerMagic[4] = {'E', 'M', 'C', 'K'};
constexpr std::size_t headerBytes = 16;

/**
 * data.bin's index, listed once: the identity, then the section
 * table in file order.
 */
struct Index
{
    std::uint64_t fingerprint = 0;
    Tick tick = 0;
    std::uint64_t numProcessed = 0;

    struct Section
    {
        std::string name;
        std::uint64_t size = 0;
        std::uint64_t crc = 0;
    };
    std::vector<Section> sections;

    void
    serialize(CheckpointIo &io)
    {
        io.scalar("config_fingerprint", fingerprint);
        io.scalar("tick", tick);
        io.scalar("num_processed", numProcessed);
        io.sequence("sections", "section", sections,
                    [&io](const std::string &key, Section &s) {
                        io.scalar(key + ".name", s.name);
                        io.scalar(key + ".size", s.size);
                        io.scalar(key + ".crc", s.crc);
                    });
    }
};

/** Read a whole binary file into @p out; false when it cannot. */
bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    std::streamoff size = in.is_open() ? std::streamoff(in.tellg()) : -1;
    if (size < 0)
        return false;
    out.resize(static_cast<std::size_t>(size));
    in.seekg(0);
    return static_cast<bool>(
        in.read(out.data(), static_cast<std::streamsize>(out.size())));
}

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/**
 * Slice-by-8 tables of the reflected CRC-32: tables[0][b] is the CRC
 * of byte b, and tables[k][b] is that CRC run on through k more zero
 * bytes.
 */
constexpr CrcTables
makeCrcTables()
{
    CrcTables tables{};
    for (std::uint32_t b = 0; b < 256; ++b) {
        std::uint32_t crc = b;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ (0xedb88320u & (0u - (crc & 1u)));
        tables[0][b] = crc;
    }
    for (std::size_t k = 1; k < 8; ++k) {
        for (std::size_t b = 0; b < 256; ++b) {
            std::uint32_t prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][prev & 0xffu];
        }
    }
    return tables;
}

constexpr CrcTables crcTables = makeCrcTables();

std::uint32_t
loadLe32(const unsigned char *p)
{
    return std::uint32_t(p[0]) | std::uint32_t(p[1]) << 8 |
           std::uint32_t(p[2]) << 16 | std::uint32_t(p[3]) << 24;
}

} // namespace

std::uint32_t
crc32(const void *bytes, std::size_t n)
{
    // Slice-by-8 (8 KB of tables), eight bytes per step: every trace
    // and checkpoint section, some of several MB, is verified on load.
    // The polynomial and bit order are those of the bitwise CRC, so
    // every stored CRC stays valid.
    const auto *p = static_cast<const unsigned char *>(bytes);
    const CrcTables &t = crcTables;
    std::uint32_t crc = 0xffffffffu;
    for (; n >= 8; n -= 8, p += 8) {
        std::uint32_t lo = crc ^ loadLe32(p);
        std::uint32_t hi = loadLe32(p + 4);
        crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
              t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
              t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
              t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (; n > 0; --n, ++p)
        crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xffu];
    return crc ^ 0xffffffffu;
}

const char *
ckptIntegrityName(CkptIntegrity status)
{
    switch (status) {
    case CkptIntegrity::Ok: return "ok";
    case CkptIntegrity::MissingData: return "missing-data";
    case CkptIntegrity::UnsupportedVersion: return "unsupported-version";
    case CkptIntegrity::TruncatedSection: return "truncated-section";
    case CkptIntegrity::CrcMismatch: return "crc-mismatch";
    case CkptIntegrity::TrailingBytes: return "trailing-bytes";
    }
    return "?";
}

CkptProbe
probeCheckpoint(const std::string &dir)
{
    CkptProbe probe;
    CheckpointReader::open(dir, probe);
    return probe;
}

std::vector<std::string>
listRotations(const std::string &base, bool recursive)
{
    namespace fs = std::filesystem;
    std::vector<std::string> found;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(
             base, fs::directory_options::skip_permission_denied, ec),
         end;
         !ec && it != end; it.increment(ec)) {
        std::error_code type_ec;
        bool rotation =
            it->is_directory(type_ec) &&
            it->path().filename().string().starts_with("auto-");
        if (rotation)
            found.push_back(it->path().string());
        if (rotation || !recursive)
            it.disable_recursion_pending();
    }
    std::sort(found.begin(), found.end());
    return found;
}

//
// CheckpointOut
//

std::string &
CheckpointOut::record(const std::string &key, RecordType type)
{
    panic_if(key.empty() || key.size() > 0xffff,
             "checkpoint section '%s': bad key length %zu",
             _section.c_str(), key.size());
    panic_if(!_seen.insert(key).second,
             "checkpoint section '%s': duplicate key '%s'",
             _section.c_str(), key.c_str());
    _buf.push_back(static_cast<char>(type));
    appendLE(_buf, key.size(), 2);
    _buf.append(key);
    return _buf;
}

//
// CheckpointIn
//

CheckpointIn::CheckpointIn(std::string section_name, const char *bytes,
                           std::size_t n)
    : _section(std::move(section_name))
{
    std::size_t pos = 0;
    auto need = [&](std::size_t k) {
        fatal_if(pos + k > n,
                 "checkpoint section '%s': truncated at offset %zu",
                 _section.c_str(), pos);
    };
    while (pos < n) {
        need(3);
        auto type = static_cast<RecordType>(
            static_cast<unsigned char>(bytes[pos]));
        fatal_if(static_cast<unsigned>(type) >
                     static_cast<unsigned>(RecordType::F64Vec),
                 "checkpoint section '%s': bad record type %u at "
                 "offset %zu", _section.c_str(),
                 static_cast<unsigned>(type), pos);
        std::size_t key_len = readLE(bytes + pos + 1, 2);
        pos += 3;
        need(key_len);
        std::string key(bytes + pos, key_len);
        pos += key_len;

        std::size_t payload_len = 0;
        switch (type) {
        case RecordType::U64:
        case RecordType::I64:
        case RecordType::F64:
            payload_len = 8;
            break;
        case RecordType::Bool:
            payload_len = 1;
            break;
        case RecordType::Str:
        case RecordType::Blob:
            need(4);
            payload_len = readLE(bytes + pos, 4);
            pos += 4;
            break;
        case RecordType::U64Vec:
        case RecordType::F64Vec:
            need(4);
            payload_len = readLE(bytes + pos, 4) * 8;
            pos += 4;
            break;
        }
        need(payload_len);
        auto [it, inserted] = _records.emplace(
            std::move(key),
            Record{type, std::string(bytes + pos, payload_len)});
        fatal_if(!inserted,
                 "checkpoint section '%s': duplicate key '%s'",
                 _section.c_str(), it->first.c_str());
        pos += payload_len;
    }
}

const std::string &
CheckpointIn::record(const std::string &key, RecordType type) const
{
    auto it = _records.find(key);
    fatal_if(it == _records.end(),
             "checkpoint section '%s': missing key '%s' — the "
             "checkpoint does not match this binary's schema",
             _section.c_str(), key.c_str());
    fatal_if(it->second.type != type,
             "checkpoint section '%s': key '%s' is %s, expected %s",
             _section.c_str(), key.c_str(),
             recordTypeName(it->second.type), recordTypeName(type));
    return it->second.payload;
}

//
// CheckpointWriter
//

CheckpointWriter::CheckpointWriter(std::string dir,
                                   std::uint64_t config_fingerprint,
                                   Tick tick,
                                   std::uint64_t num_processed)
    : _dir(std::move(dir)), _fingerprint(config_fingerprint),
      _tick(tick), _numProcessed(num_processed)
{
    std::error_code ec;
    std::filesystem::create_directories(_dir, ec);
    fatal_if(static_cast<bool>(ec),
             "cannot create checkpoint directory '%s': %s",
             _dir.c_str(), ec.message().c_str());
}

CheckpointWriter::~CheckpointWriter()
{
    if (!_finalized)
        finalize();
}

CheckpointOut &
CheckpointWriter::section(const std::string &name)
{
    panic_if(_finalized, "checkpoint '%s' already finalized",
             _dir.c_str());
    for (const CheckpointOut &s : _sections)
        panic_if(s.sectionName() == name,
                 "checkpoint '%s': duplicate section '%s'",
                 _dir.c_str(), name.c_str());
    _sections.emplace_back(name);
    return _sections.back();
}

void
CheckpointWriter::finalize()
{
    if (_finalized)
        return;
    _finalized = true;

    Index table{_fingerprint, _tick, _numProcessed, {}};
    for (const CheckpointOut &s : _sections) {
        const std::string &bytes = s.bytes();
        table.sections.push_back({s.sectionName(), bytes.size(),
                                  crc32(bytes.data(), bytes.size())});
    }
    CheckpointOut index("index");
    CheckpointIo io(index);
    table.serialize(io);

    std::string header(headerMagic, sizeof(headerMagic));
    appendLE(header, checkpointFormatVersion, 4);
    appendLE(header, index.bytes().size(), 4);
    appendLE(header, crc32(index.bytes().data(), index.bytes().size()),
             4);

    std::string data_path = _dir + "/data.bin";
    std::ofstream data(data_path, std::ios::binary);
    fatal_if(!data.is_open(), "cannot write '%s'", data_path.c_str());
    auto put = [&data](const std::string &bytes) {
        data.write(bytes.data(),
                   static_cast<std::streamsize>(bytes.size()));
    };
    put(header);
    put(index.bytes());
    for (const CheckpointOut &s : _sections)
        put(s.bytes());
    data.close();
    fatal_if(data.fail(), "write to '%s' failed", data_path.c_str());
}

//
// CheckpointReader
//

CheckpointReader::CheckpointReader(const std::string &dir) : _dir(dir)
{
    CkptProbe probe = load();
    fatal_if(!probe.ok(), "checkpoint '%s': %s", _dir.c_str(),
             probe.detail.c_str());
}

std::optional<CheckpointReader>
CheckpointReader::open(const std::string &dir, CkptProbe &probe)
{
    CheckpointReader reader;
    reader._dir = dir;
    probe = reader.load();
    if (!probe.ok())
        return std::nullopt;
    return reader;
}

CkptProbe
CheckpointReader::load()
{
    CkptProbe probe;
    auto damaged = [&probe](CkptIntegrity status, std::string detail) {
        probe.status = status;
        probe.detail = std::move(detail);
        return probe;
    };

    std::string data_path = _dir + "/data.bin";
    if (!readFile(data_path, _data)) {
        return damaged(CkptIntegrity::MissingData,
                       "cannot open " + data_path + " — is '" + _dir +
                           "' a checkpoint directory?");
    }
    const std::size_t size = _data.size();
    auto pastEnd = [&](const std::string &what, std::size_t offset,
                       std::size_t bytes) {
        return damaged(
            CkptIntegrity::TruncatedSection,
            strprintf("%s (offset %zu, size %zu) extends past the end "
                      "of data.bin (%zu bytes)",
                      what.c_str(), offset, bytes, size));
    };
    auto crcMismatch = [&](const std::string &what, std::uint32_t actual,
                           std::uint64_t want) {
        return damaged(
            CkptIntegrity::CrcMismatch,
            strprintf("%s fails CRC verification (%08x, expected "
                      "%08llx) — the checkpoint is corrupt",
                      what.c_str(), actual, (unsigned long long)want));
    };

    if (size < headerBytes)
        return pastEnd("the header", 0, headerBytes);
    if (_data.compare(0, sizeof(headerMagic), headerMagic,
                      sizeof(headerMagic)) != 0) {
        return damaged(
            CkptIntegrity::UnsupportedVersion,
            strprintf("data.bin has no format version %llu header "
                      "(format 2 and older are not readable)",
                      (unsigned long long)checkpointFormatVersion));
    }
    std::uint64_t version = readLE(_data.data() + 4, 4);
    if (version != checkpointFormatVersion) {
        return damaged(
            CkptIntegrity::UnsupportedVersion,
            strprintf("format version %llu (this binary reads %llu)",
                      (unsigned long long)version,
                      (unsigned long long)checkpointFormatVersion));
    }
    std::size_t index_size = readLE(_data.data() + 8, 4);
    if (index_size > size - headerBytes)
        return pastEnd("the index", headerBytes, index_size);
    std::uint64_t index_crc = readLE(_data.data() + 12, 4);
    std::uint32_t actual = crc32(_data.data() + headerBytes, index_size);
    if (actual != index_crc)
        return crcMismatch("the index", actual, index_crc);

    Index table;
    CheckpointIo io(
        CheckpointIn("index", _data.data() + headerBytes, index_size));
    table.serialize(io);
    _fingerprint = probe.fingerprint = table.fingerprint;
    _tick = probe.tick = table.tick;
    _numProcessed = probe.numProcessed = table.numProcessed;

    std::size_t offset = headerBytes + index_size;
    for (const Index::Section &s : table.sections) {
        std::string what = "section '" + s.name + "'";
        if (s.size > size - offset)
            return pastEnd(what, offset, s.size);
        actual = crc32(_data.data() + offset, s.size);
        if (actual != s.crc)
            return crcMismatch(what, actual, s.crc);
        _sections.emplace(s.name, SectionRef{offset, s.size});
        offset += s.size;
    }
    if (offset != size) {
        return damaged(CkptIntegrity::TrailingBytes,
                       strprintf("data.bin runs on for %zu bytes past "
                                 "its last section",
                                 size - offset));
    }
    probe.status = CkptIntegrity::Ok;
    return probe;
}

bool
CheckpointReader::hasSection(const std::string &name) const
{
    return _sections.count(name) != 0;
}

CheckpointIn
CheckpointReader::section(const std::string &name) const
{
    auto it = _sections.find(name);
    fatal_if(it == _sections.end(),
             "checkpoint '%s': no section '%s' — the checkpointed "
             "topology does not match this configuration",
             _dir.c_str(), name.c_str());
    return CheckpointIn(name, _data.data() + it->second.offset,
                        it->second.size);
}

} // namespace emerald
