// Deterministic discrete-event queue.
//
// Events are ordered by (time, kind priority, insertion sequence). The kind
// priority resolves simultaneity the way the physics requires: a transmission
// that ends at instant t must be processed before one that starts at t, so
// back-to-back transmissions by one sender neither overlap nor interfere
// with each other at the shared boundary.
//
// Layout: the heap itself holds 24-byte items (time, a packed kind+sequence
// key, a slot index); the 32-byte POD Event header lives in a slot array
// recycled through a free list. The queue holds no packets: an inject event
// names its packet by an index into the network layer's staged packets.
// Sifts therefore move small items and never copy packets.
//
// Cancellation is lazy: cancel(handle) tombstones the slot in O(1) and the
// dead heap item is discarded when it surfaces — except that the heap top is
// always kept live (pruned eagerly) so next_time() stays exact, and when
// tombstones outnumber live entries the heap is compacted in one O(n) pass.
// The pop ORDER is untouched by any of this: (time, kind, seq) is a total
// order with unique sequence numbers, so the surviving events pop in exactly
// the order they would have without cancellation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/types.hpp"
#include "sim/event_handle.hpp"

namespace drn::sim {

/// Discriminates event payloads. Enumerator order IS the simultaneity
/// priority (lower value runs first at equal times).
enum class EventKind : std::uint8_t {
  kTransmitEnd = 0,
  kTimer = 1,
  kInject = 2,
  kTransmitStart = 3,
};

/// POD event header. Which union member is live depends on kind; the timer
/// fields (station, generation) sit outside the union so a kTimer event
/// carries station + generation + cookie at once.
struct Event {
  double time_s = 0.0;
  union {
    std::uint64_t tx_id = 0;  // kTransmitStart / kTransmitEnd
    std::uint64_t cookie;     // kTimer
    std::size_t staged;       // kInject (index into NetworkLayer's staging)
  };
  StationId station = kNoStation;  // kTimer
  /// Station MAC generation that armed this timer; a timer whose station has
  /// been torn down (and possibly replaced) since is stale and is dropped
  /// instead of delivered to the new MAC.
  std::uint32_t generation = 0;  // kTimer
  EventKind kind = EventKind::kTimer;
};

static_assert(std::is_trivially_copyable_v<Event>);
static_assert(sizeof(Event) <= 32, "Event must stay a slim POD header");

/// Min-queue of events with total, deterministic ordering and O(1) lazy
/// cancellation through generation-stamped handles.
class EventQueue {
 public:
  /// Enqueues `e`; the handle cancels exactly this entry (and nothing else,
  /// ever — see EventHandle).
  EventHandle push(Event e);

  /// Live (non-cancelled) entries.
  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest pending event. Requires a non-empty queue.
  [[nodiscard]] double next_time() const;

  /// Removes and returns the earliest event. Requires a non-empty queue.
  Event pop();

  /// Removes and returns the earliest event iff it is due at or before
  /// `t_s`; one top inspection serves both the bound test and the pop, so
  /// drain loops need no separate next_time()/pop() pair.
  std::optional<Event> pop_if_before(double t_s);

  /// Cancels the entry behind `h` if it is still pending. Returns whether it
  /// was (a stale, fired, or never-armed handle is a no-op).
  bool cancel(EventHandle h);

  /// True iff `h` names an entry still waiting in the queue.
  [[nodiscard]] bool pending(EventHandle h) const {
    return h.slot < slots_.size() && slots_[h.slot].live &&
           slots_[h.slot].generation == h.generation;
  }

  // -- introspection (tests, benches) ---------------------------------------

  /// Heap entries including tombstones awaiting compaction.
  [[nodiscard]] std::size_t heap_entries() const { return heap_.size(); }
  /// High-water mark of heap entries (live + tombstones).
  [[nodiscard]] std::size_t peak_entries() const { return peak_entries_; }
  /// High-water mark of queue memory: peak heap items plus the slot array
  /// (slots only grow, so their current count is their peak).
  [[nodiscard]] std::size_t peak_bytes() const;
  /// Completed O(n) tombstone-compaction passes.
  [[nodiscard]] std::uint64_t compactions() const { return compactions_; }

 private:
  /// What the heap actually sifts: 24 bytes, no payload. `key` packs the
  /// kind priority above the insertion sequence, so the (kind, seq)
  /// tie-break is one integer compare.
  struct Item {
    double time_s;
    std::uint64_t key;  // (kind << 62) | seq
    std::uint32_t slot;
  };

  struct Slot {
    Event event;
    std::uint32_t generation = 0;
    std::uint32_t next_free = EventHandle::kInvalidSlot;
    bool live = false;
  };

  static bool earlier(const Item& a, const Item& b) {
    // Only bit-identical times reach the integer tie-break (which encodes
    // the end-before-start simultaneity rule); the order is total without
    // ever testing floating-point equality.
    if (a.time_s < b.time_s) return true;
    if (b.time_s < a.time_s) return false;
    return a.key < b.key;
  }

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  /// Removes heap_[i] in O(log n), preserving the heap property.
  void remove_item(std::size_t i);
  /// Discards tombstoned items sitting on top so heap_[0] (when the queue is
  /// non-empty) is always live and next_time() needs no search.
  void prune_top();
  /// One O(n) pass dropping every tombstone, then a bottom-up re-heapify.
  void compact();

  /// Tombstones the slot: bumps its generation (staling every handle) and
  /// takes it out of the live count. The heap item stays until pruned,
  /// popped over, or compacted away.
  void kill_slot(std::uint32_t slot);
  /// Returns a slot whose heap item is gone to the free list.
  void recycle_slot(std::uint32_t slot);

  std::vector<Item> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = EventHandle::kInvalidSlot;
  std::size_t live_ = 0;
  std::size_t dead_ = 0;  // tombstones still occupying heap items
  std::uint64_t next_seq_ = 0;
  std::size_t peak_entries_ = 0;
  std::uint64_t compactions_ = 0;
};

}  // namespace drn::sim
