/**
 * @file
 * One checkpoint section being written or read.
 *
 * Every stateful object lists its fields once, in
 * serialize(CheckpointIo &), and so do the checkpoint index and the
 * draw-call and traffic traces. Saving, each call encodes its field as
 * one typed record (CheckpointOut); loading, the same call decodes the
 * record back into the field (CheckpointIn) with the check its kind of
 * field needs. So a section's writer and reader are the same code and
 * cannot drift, and this is the only record codec. An io that holds
 * packets or names retry waiters carries the Simulation those
 * references resolve against: its SimObjects and its PacketPool.
 */

#ifndef EMERALD_SIM_SERIALIZE_CHECKPOINT_IO_HH
#define EMERALD_SIM_SERIALIZE_CHECKPOINT_IO_HH

#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/serialize/serialize.hh"

namespace emerald
{

class MemClient;
class MemPacket;
class MemRequestor;
class Simulation;

class CheckpointIo
{
  public:
    /**
     * Saving: every call appends its records to @p out. A section
     * that holds packets or names retry waiters needs @p sim; any
     * other can leave it out.
     */
    explicit CheckpointIo(CheckpointOut &out, Simulation *sim = nullptr);

    /** Loading: every call reads its records from @p in. */
    explicit CheckpointIo(CheckpointIn in, Simulation *sim = nullptr);

    bool loading() const { return !_out; }

    /**
     * One record holding @p v: a bool as Bool, a signed integer as
     * I64, an unsigned one as U64, a floating-point value as F64, a
     * string as Str. An explicit @p S stores v as that type instead
     * (a whole-number double as U64), converting both ways.
     */
    template <class S = void, class T>
    void
    scalar(const std::string &key, T &v)
    {
        using Rec = std::conditional_t<std::is_void_v<S>, Stored<T>, S>;
        Rec stored = static_cast<Rec>(v);
        record(key, stored);
        if (loading())
            v = static_cast<T>(stored);
    }

    /** An enumerator as U64; loading @p count or more is fatal. */
    template <class E>
    void
    enumeration(const std::string &key, E &v, std::uint64_t count)
    {
        auto stored = static_cast<std::uint64_t>(v);
        record(key, stored);
        fatal_if(loading() && stored >= count,
                 "checkpoint section '%s': '%s' is %llu, past the last "
                 "of its %llu enumerators", sectionName().c_str(),
                 key.c_str(), (unsigned long long)stored,
                 (unsigned long long)count);
        v = static_cast<E>(stored);
    }

    /**
     * A value the run fixes rather than evolves (an IP's name, the
     * warp policy, a plane's width): saving writes @p live; loading
     * any other value is fatal, naming @p what.
     */
    template <class T>
    void
    match(const std::string &key, const T &live, const char *what)
    {
        const Stored<T> expected = static_cast<Stored<T>>(live);
        Stored<T> stored = expected;
        record(key, stored);
        fatal_if(stored != expected,
                 "checkpoint section '%s': %s ('%s') is %s in the "
                 "checkpoint but %s in this run", sectionName().c_str(),
                 what, key.c_str(), show(stored).c_str(),
                 show(expected).c_str());
    }

    /** A variable-length list of numbers as one U64Vec or F64Vec. */
    template <class Seq>
    void
    vector(const std::string &key, Seq &seq)
    {
        std::vector<Number<typename Seq::value_type>> stored(seq.begin(),
                                                             seq.end());
        record(key, stored);
        if (loading())
            seq.assign(stored.begin(), stored.end());
    }

    /**
     * The list of one @p field of each of @p rows, as long as @p rows
     * is; loading sets how many rows there are.
     */
    template <class Rows, class Row, class T>
    void
    vector(const std::string &key, Rows &rows, T Row::*field)
    {
        std::vector<Number<T>> stored;
        stored.reserve(rows.size());
        for (const Row &row : rows)
            stored.push_back(static_cast<Number<T>>(row.*field));
        record(key, stored);
        if (!loading())
            return;
        rows.resize(stored.size());
        for (std::size_t i = 0; i < stored.size(); ++i)
            rows[i].*field = static_cast<T>(stored[i]);
    }

    /**
     * A U64Vec column of @p n entries: saving writes get(i) for each
     * i. Loading a column of any other length is fatal; otherwise
     * set(i, value) takes each entry.
     */
    template <class Get, class Set>
    void
    column(const std::string &key, std::size_t n, Get get, Set set)
    {
        std::vector<std::uint64_t> entries(loading() ? 0 : n);
        for (std::size_t i = 0; i < entries.size(); ++i)
            entries[i] = static_cast<std::uint64_t>(get(i));
        record(key, entries);
        if (!loading())
            return;
        checkLength(key, entries.size(), n);
        for (std::size_t i = 0; i < n; ++i)
            set(i, entries[i]);
    }

    /** The column of @p rows' values, as long as @p rows is. */
    template <class Rows>
    void
    column(const std::string &key, Rows &rows)
    {
        using T = typename Rows::value_type;
        column(
            key, rows.size(), [&rows](std::size_t i) { return rows[i]; },
            [&rows](std::size_t i, std::uint64_t v) {
                rows[i] = static_cast<T>(v);
            });
    }

    /** The column of one @p field of each of @p rows. */
    template <class Rows, class Row, class T>
    void
    column(const std::string &key, Rows &rows, T Row::*field)
    {
        column(
            key, rows.size(),
            [&rows, field](std::size_t i) { return rows[i].*field; },
            [&rows, field](std::size_t i, std::uint64_t v) {
                rows[i].*field = static_cast<T>(v);
            });
    }

    /**
     * @p plane's bytes as a Blob. Loading into an empty @p plane sizes
     * it to the record; into a sized one, another size is fatal.
     */
    template <class T>
    void
    blob(const std::string &key, std::vector<T> &plane)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        if (!loading()) {
            bytes(key, plane.data(), plane.size() * sizeof(T));
            return;
        }
        const std::string &stored = bytes(key);
        if (plane.empty())
            plane.resize(stored.size() / sizeof(T));
        checkLength(key, stored.size(), plane.size() * sizeof(T));
        if (!stored.empty())
            std::memcpy(plane.data(), stored.data(), stored.size());
    }

    /**
     * A counted list of records: the count under @p count_key, item
     * i's fields under the prefix "<item_prefix><i>". Saving,
     * fn(prefix, item) lists each of @p items. Loading into empty
     * @p items (a restore starts from a fresh topology), fn fills a
     * value-initialised item and @p append takes it.
     */
    template <class Seq, class Fn, class Append>
    void
    sequence(const std::string &count_key, const std::string &item_prefix,
             Seq &items, Fn fn, Append append)
    {
        std::uint64_t n = items.size();
        scalar(count_key, n);
        if (!loading()) {
            std::size_t i = 0;
            for (auto &item : items)
                fn(item_prefix + std::to_string(i++), item);
            return;
        }
        panic_if(!items.empty(),
                 "checkpoint section '%s': '%s' restores onto %zu live "
                 "items", sectionName().c_str(), count_key.c_str(),
                 static_cast<std::size_t>(items.size()));
        for (std::uint64_t i = 0; i < n; ++i) {
            typename Seq::value_type item{};
            fn(item_prefix + std::to_string(i), item);
            append(std::move(item));
        }
    }

    /** A counted list whose loaded items are pushed back. */
    template <class Seq, class Fn>
    void
    sequence(const std::string &count_key, const std::string &item_prefix,
             Seq &items, Fn fn)
    {
        sequence(count_key, item_prefix, items, fn,
                 [&items](typename Seq::value_type &&item) {
                     items.push_back(std::move(item));
                 });
    }

    /**
     * A held packet under "<prefix>." keys, its response target as a
     * reference ("" for a posted write). Loading allocates @p pkt
     * from the Simulation's pool; an unknown client, access kind or
     * traffic class is fatal.
     */
    void packet(const std::string &prefix, MemPacket *&pkt);

    /**
     * @{ A response target or retry waiter, saved as the name of the
     * SimObject that recorded it (SimObject::registerCheckpoint*())
     * and loaded as what the object of that name recorded. Saving an
     * unrecorded one, or loading a name no object recorded one
     * under, is fatal. A null client is saved as "".
     */
    void reference(const std::string &key, MemClient *&client);
    void reference(const std::string &key, MemRequestor *&req);
    /** @} */

  private:
    template <class T>
    using Stored = std::conditional_t<
        std::is_same_v<T, bool>, bool,
        std::conditional_t<
            std::is_floating_point_v<T>, double,
            std::conditional_t<
                std::is_signed_v<T>, std::int64_t,
                std::conditional_t<std::is_unsigned_v<T>, std::uint64_t,
                                   std::string>>>>;
    /** The list type a number is stored in: F64Vec or U64Vec. */
    template <class T>
    using Number = std::conditional_t<std::is_floating_point_v<T>, double,
                                      std::uint64_t>;

    /**
     * The record codec: write @p v under @p key, or read the record
     * into @p v. Defined for every Stored type and for U64Vec and
     * F64Vec lists.
     */
    template <class S>
    void record(const std::string &key, S &v);

    /** @{ A Blob: write @p n bytes at @p data, or read the record. */
    void bytes(const std::string &key, const void *data, std::size_t n);
    const std::string &bytes(const std::string &key) const;
    /** @} */

    template <class S>
    static std::string
    show(const S &v)
    {
        if constexpr (std::is_same_v<S, std::string>)
            return "'" + v + "'";
        else
            return std::to_string(v);
    }

    /** The Simulation references resolve against (panics if none). */
    Simulation &sim() const;
    const std::string &sectionName() const;
    void checkLength(const std::string &key, std::size_t stored,
                     std::size_t live) const;

    CheckpointOut *_out = nullptr;
    std::optional<CheckpointIn> _in;
    Simulation *_sim;
};

/** The io of section @p name of a file being saved or loaded. */
using OpenSection = std::function<CheckpointIo(const std::string &name)>;

} // namespace emerald

#endif // EMERALD_SIM_SERIALIZE_CHECKPOINT_IO_HH
