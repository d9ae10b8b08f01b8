/**
 * @file
 * Name <-> pointer tables used to checkpoint cross-object references.
 *
 * A checkpoint cannot store pointers, so anything referenced across
 * objects is written as a name and resolved against this registry on
 * restore: pending Events (re-scheduled by name), MemClients (packet
 * response targets) and MemRequestors (parked RetryList waiters).
 * Components register in their constructors — the same construction
 * that rebuilds the topology on restore rebuilds the registry, so the
 * names resolve to the equivalent objects in the new process.
 */

#ifndef EMERALD_SIM_SERIALIZE_REGISTRY_HH
#define EMERALD_SIM_SERIALIZE_REGISTRY_HH

#include <map>
#include <string>

#include "sim/logging.hh"

namespace emerald
{

class Event;
class MemClient;
class MemRequestor;

/** One name <-> pointer table; a name registers at most once. */
template <class T>
class NameTable
{
  public:
    /** @p kind names the table in the duplicate-name panic. */
    explicit NameTable(const char *kind) : _kind(kind) {}

    void
    add(const std::string &name, T &obj)
    {
        auto [it, inserted] = _byName.emplace(name, &obj);
        panic_if(!inserted,
                 "checkpoint registry: duplicate %s name '%s'", _kind,
                 name.c_str());
        _byObj.emplace(&obj, name);
    }

    void
    remove(const T &obj)
    {
        auto it = _byObj.find(&obj);
        if (it == _byObj.end())
            return;
        _byName.erase(it->second);
        _byObj.erase(it);
    }

    /** The object registered as @p name, or nullptr. */
    T *
    find(const std::string &name) const
    {
        auto it = _byName.find(name);
        return it == _byName.end() ? nullptr : it->second;
    }

    /** The registered name of @p obj, or nullptr. */
    const std::string *
    nameOf(const T &obj) const
    {
        auto it = _byObj.find(&obj);
        return it == _byObj.end() ? nullptr : &it->second;
    }

  private:
    const char *_kind;
    std::map<std::string, T *> _byName;
    std::map<const T *, std::string> _byObj;
};

/** Checkpoint name tables owned by the Simulation. */
class CheckpointRegistry
{
  public:
    /** @{ Pending-event table (EventQueue re-scheduling by name). */
    void
    registerEvent(const std::string &name, Event &ev)
    {
        _events.add(name, ev);
    }

    void unregisterEvent(Event &ev) { _events.remove(ev); }

    Event *
    findEvent(const std::string &name) const
    {
        return _events.find(name);
    }

    /** Registered name of @p ev, or "" when unregistered. */
    std::string
    eventName(const Event &ev) const
    {
        const std::string *name = _events.nameOf(ev);
        return name ? *name : std::string();
    }
    /** @} */

    /** @{ Response-target table (MemPacket::client by name). */
    void
    registerClient(const std::string &name, MemClient &client)
    {
        _clients.add(name, client);
    }

    void unregisterClient(MemClient &client) { _clients.remove(client); }

    MemClient &
    client(const std::string &name) const
    {
        MemClient *found = _clients.find(name);
        fatal_if(!found,
                 "checkpoint restore: no MemClient named '%s' in this "
                 "topology", name.c_str());
        return *found;
    }

    /** Registered name of @p client (fatal when unregistered). */
    const std::string &
    clientName(const MemClient &client) const
    {
        const std::string *name = _clients.nameOf(client);
        fatal_if(!name,
                 "checkpoint: in-flight packet references an "
                 "unregistered MemClient — every response target must "
                 "call registerCheckpointClient()");
        return *name;
    }
    /** @} */

    /** @{ Retry-waiter table (RetryList parking by name). */
    void
    registerRequestor(const std::string &name, MemRequestor &req)
    {
        _requestors.add(name, req);
    }

    void
    unregisterRequestor(MemRequestor &req)
    {
        _requestors.remove(req);
    }

    MemRequestor &
    requestor(const std::string &name) const
    {
        MemRequestor *found = _requestors.find(name);
        fatal_if(!found,
                 "checkpoint restore: no MemRequestor named '%s' in "
                 "this topology", name.c_str());
        return *found;
    }

    /** Registered name of @p req (fatal when unregistered). */
    const std::string &
    requestorName(const MemRequestor &req) const
    {
        const std::string *name = _requestors.nameOf(req);
        fatal_if(!name,
                 "checkpoint: parked retry waiter is an unregistered "
                 "MemRequestor — every requestor that can block must "
                 "call registerCheckpointRequestor()");
        return *name;
    }
    /** @} */

  private:
    NameTable<Event> _events{"event"};
    NameTable<MemClient> _clients{"client"};
    NameTable<MemRequestor> _requestors{"requestor"};
};

} // namespace emerald

#endif // EMERALD_SIM_SERIALIZE_REGISTRY_HH
