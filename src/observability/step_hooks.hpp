// Multi-subscriber step hooks: the redesigned observer surface of the
// TimeStepper and the MultiDomainRunner.
//
// The original API was a single std::function slot (`set_step_observer`)
// on each driver. That worked while the conservation ledger was the
// only consumer; with the watchdog, the golden harness and the metrics
// snapshotter all wanting per-step callbacks, attaching one silently
// evicted another. StepHooks replaces the slot with an ordered
// subscriber list:
//
//   auto ledger_sub  = stepper.step_hooks().add([&](const State<T>& s) {...});
//   auto metrics_sub = stepper.step_hooks().add([&](const State<T>& s) {...});
//   ...
//   stepper.step_hooks().remove(metrics_sub);   // ledger keeps firing
//
// Subscribers fire in subscription order (deterministic, so a ledger
// that must observe before a snapshotter simply subscribes first), and
// removal by handle is O(#subscribers).
//
// Thread-safety: none needed — hooks are driver-side state, mutated
// and fired from the step() caller's thread only (both drivers already
// guarantee observers run after worker tasks join).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace asuca::obs {

template <class... Args>
class StepHooks {
  public:
    using Fn = std::function<void(Args...)>;

    /// Opaque subscription id; 0 is never a valid handle.
    using Handle = std::uint64_t;

    /// Subscribe. Hooks fire in subscription order. An empty function
    /// is accepted and simply never fires (it still holds its slot so
    /// remove() on its handle stays meaningful).
    Handle add(Fn fn) {
        const Handle h = next_++;
        subs_.push_back({h, std::move(fn)});
        return h;
    }

    /// Unsubscribe; returns false for unknown (or already removed)
    /// handles. Must not be called from inside a firing hook.
    bool remove(Handle h) {
        for (std::size_t n = 0; n < subs_.size(); ++n) {
            if (subs_[n].handle == h) {
                subs_.erase(subs_.begin() +
                            static_cast<std::ptrdiff_t>(n));
                return true;
            }
        }
        return false;
    }

    void clear() { subs_.clear(); }

    std::size_t size() const { return subs_.size(); }
    bool empty() const { return subs_.empty(); }

    /// Fire every subscriber, in subscription order.
    void notify(Args... args) const {
        for (const auto& s : subs_) {
            if (s.fn) s.fn(args...);
        }
    }

  private:
    struct Sub {
        Handle handle;
        Fn fn;
    };

    std::vector<Sub> subs_;
    Handle next_ = 1;
};

}  // namespace asuca::obs
