/**
 * @file
 * One checkpoint section being written or read.
 *
 * Every stateful object lists its fields once, in
 * serialize(CheckpointIo &). Saving, each call writes its field as one
 * typed record (CheckpointOut); loading, the same call reads the
 * record back into the field (CheckpointIn) with the check its kind of
 * field needs. So a section's writer and reader are the same code and
 * cannot drift. The io carries what cross-object references resolve
 * against: the Simulation's CheckpointRegistry and its PacketPool.
 */

#ifndef EMERALD_SIM_SERIALIZE_CHECKPOINT_IO_HH
#define EMERALD_SIM_SERIALIZE_CHECKPOINT_IO_HH

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/serialize/serialize.hh"

namespace emerald
{

class CheckpointRegistry;
class MemPacket;
class PacketPool;

class CheckpointIo
{
  public:
    /** Saving: every call appends its records to @p out. */
    CheckpointIo(CheckpointOut &out, const CheckpointRegistry &registry,
                 PacketPool &pool);

    /** Loading: every call reads its records from @p in. */
    CheckpointIo(CheckpointIn in, const CheckpointRegistry &registry,
                 PacketPool &pool);

    bool loading() const { return !_out; }

    const CheckpointRegistry &registry() const { return _registry; }

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
        using T = typename Seq::value_type;
        std::vector<std::conditional_t<std::is_floating_point_v<T>, double,
                                       std::uint64_t>>
            stored(seq.begin(), seq.end());
        record(key, stored);
        if (loading())
            seq.assign(stored.begin(), stored.end());
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

    /** @p plane's bytes as a Blob; loading another size is fatal. */
    template <class T>
    void
    blob(const std::string &key, std::vector<T> &plane)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        const std::size_t bytes = plane.size() * sizeof(T);
        if (loading()) {
            const std::string &stored = _in->getBlob(key);
            checkLength(key, stored.size(), bytes);
            std::memcpy(plane.data(), stored.data(), bytes);
        } else {
            _out->putBlob(key, plane.data(), bytes);
        }
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
     * A held packet under "<prefix>." keys, its response target by
     * registry name ("" for a posted write). Loading allocates @p pkt
     * from the pool; an unknown client, access kind or traffic class
     * is fatal.
     */
    void packet(const std::string &prefix, MemPacket *&pkt);

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
    using U64s = std::vector<std::uint64_t>;
    using F64s = std::vector<double>;

    /** Write @p v under @p key, or read the record into @p v. */
    template <class S>
    void
    record(const std::string &key, S &v)
    {
        if (loading())
            get(key, v);
        else
            put(key, v);
    }

    void put(const std::string &k, std::uint64_t v) { _out->putU64(k, v); }
    void put(const std::string &k, std::int64_t v) { _out->putI64(k, v); }
    void put(const std::string &k, double v) { _out->putF64(k, v); }
    void put(const std::string &k, bool v) { _out->putBool(k, v); }
    void put(const std::string &k, const std::string &v)
    {
        _out->putStr(k, v);
    }
    void put(const std::string &k, const U64s &v) { _out->putU64Vec(k, v); }
    void put(const std::string &k, const F64s &v) { _out->putF64Vec(k, v); }
    void get(const std::string &k, std::uint64_t &v) { v = _in->getU64(k); }
    void get(const std::string &k, std::int64_t &v) { v = _in->getI64(k); }
    void get(const std::string &k, double &v) { v = _in->getF64(k); }
    void get(const std::string &k, bool &v) { v = _in->getBool(k); }
    void get(const std::string &k, std::string &v) { v = _in->getStr(k); }
    void get(const std::string &k, U64s &v) { v = _in->getU64Vec(k); }
    void get(const std::string &k, F64s &v) { v = _in->getF64Vec(k); }

    template <class S>
    static std::string
    show(const S &v)
    {
        if constexpr (std::is_same_v<S, std::string>)
            return "'" + v + "'";
        else
            return std::to_string(v);
    }

    const std::string &sectionName() const;
    void checkLength(const std::string &key, std::size_t stored,
                     std::size_t live) const;

    CheckpointOut *_out = nullptr;
    std::optional<CheckpointIn> _in;
    const CheckpointRegistry &_registry;
    PacketPool &_pool;
};

} // namespace emerald

#endif // EMERALD_SIM_SERIALIZE_CHECKPOINT_IO_HH
