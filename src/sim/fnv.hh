/**
 * @file
 * 64-bit FNV-1a: the event hash, the checkpoint and sweep
 * fingerprints, the colour hash and synthetic fetch addresses.
 */

#ifndef EMERALD_SIM_FNV_HH
#define EMERALD_SIM_FNV_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace emerald
{

// Integers are hashed as their in-memory bytes; every pinned hash and
// stored fingerprint was made from little-endian bytes.
static_assert(std::endian::native == std::endian::little);

constexpr std::uint64_t fnvOffsetBasis = 0xcbf29ce484222325ULL;

/** The sweep fingerprints' basis: the standard one short of its last
 *  decimal digit, kept because stored sweeps hold hashes made with it. */
constexpr std::uint64_t sweepFnvBasis = 1469598103934665603ULL;

/** Fold @p n bytes at @p bytes into the FNV-1a state @p hash. */
inline std::uint64_t
fnv1a(std::uint64_t hash, const void *bytes, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(bytes);
    for (std::size_t i = 0; i < n; ++i)
        hash = (hash ^ p[i]) * 0x00000100000001b3ULL;
    return hash;
}

inline std::uint64_t
fnv1a(std::uint64_t hash, std::string_view text)
{
    return fnv1a(hash, text.data(), text.size());
}

} // namespace emerald

#endif // EMERALD_SIM_FNV_HH
