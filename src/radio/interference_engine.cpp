#include "radio/interference_engine.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "geo/grid_index.hpp"

namespace drn::radio {

namespace {

/// Incremental recomputation period: after this many updates a reception's
/// running sum is rebuilt exactly from the live transmission set, so
/// compensated rounding residue can never accumulate across more than
/// kRecomputePeriod operations.
constexpr std::uint32_t kRecomputePeriod = 64;

/// Active transmissions as parallel arrays in ascending id order.
struct ActiveSet {
  std::vector<std::uint64_t> id;
  std::vector<StationId> from;
  std::vector<double> power_w;

  /// Position of tx_id; it must be on the air.
  [[nodiscard]] std::size_t find(std::uint64_t tx_id) const {
    const auto it = std::lower_bound(id.begin(), id.end(), tx_id);
    DRN_EXPECTS(it != id.end() && *it == tx_id);
    return static_cast<std::size_t>(it - id.begin());
  }

  /// Ids are assigned in booking order and most transmissions start in
  /// that order, so this is almost always an append.
  void insert(std::uint64_t tx_id, StationId tx_from, double tx_power_w) {
    const auto it = std::lower_bound(id.begin(), id.end(), tx_id);
    DRN_EXPECTS(it == id.end() || *it != tx_id);
    const auto k = it - id.begin();
    id.insert(it, tx_id);
    from.insert(from.begin() + k, tx_from);
    power_w.insert(power_w.begin() + k, tx_power_w);
  }

  void erase(std::size_t k) {
    const auto d = static_cast<std::ptrdiff_t>(k);
    id.erase(id.begin() + d);
    from.erase(from.begin() + d);
    power_w.erase(power_w.begin() + d);
  }
};

/// Open receptions packed into dense slots 0..size()-1, with a handle ->
/// slot map. open() binds a handle (closed handles are reused last-in
/// first-out) to the next slot; close() swap-removes, moving the last slot
/// into the closed one in the owner's per-slot arrays too, so a walk over
/// the slots never steps over a closed reception.
class LiveSlots {
 public:
  [[nodiscard]] std::size_t size() const { return handle_.size(); }
  [[nodiscard]] ReceptionHandle handle(std::size_t i) const {
    return handle_[i];
  }
  [[nodiscard]] std::uint32_t slot(ReceptionHandle h) const {
    DRN_EXPECTS(h < slot_of_.size() && slot_of_[h] != kNoSlot);
    return slot_of_[h];
  }

  /// Binds a handle to slot size(); the owner then appends the slot's data.
  ReceptionHandle open() {
    ReceptionHandle h = kInvalidReception;
    if (!free_.empty()) {
      h = free_.back();
      free_.pop_back();
    } else {
      h = static_cast<ReceptionHandle>(slot_of_.size());
      slot_of_.push_back(kNoSlot);
    }
    slot_of_[h] = static_cast<std::uint32_t>(handle_.size());
    handle_.push_back(h);
    return h;
  }

  /// Unbinds h and swap-removes its slot from each of the owner's arrays.
  template <typename... Arrays>
  void close(ReceptionHandle h, Arrays&... arrays) {
    const std::uint32_t i = slot(h);
    const std::size_t last = handle_.size() - 1;
    if (i != last) {
      handle_[i] = handle_[last];
      slot_of_[handle_[i]] = i;
      ((arrays[i] = arrays[last]), ...);
    }
    handle_.pop_back();
    (arrays.pop_back(), ...);
    slot_of_[h] = kNoSlot;
    free_.push_back(h);
  }

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  std::vector<ReceptionHandle> handle_;  // slot -> handle
  std::vector<std::uint32_t> slot_of_;   // handle -> slot, kNoSlot if closed
  std::vector<ReceptionHandle> free_;    // closed handles, reused LIFO
};

// ---------------------------------------------------------------------------
// Compensated engine: Neumaier sums + periodic exact recomputation.
//
// Everything a walk reads is laid out as parallel arrays: the ActiveSet and
// one array per field of the live slots (tx_id, rx, sum, ops). Gains are
// read through PropagationMatrix::row() views, one bounds check per walk.
//
// Slot order is free: a visit touches only its own slot and the client's
// record for its own handle. That also lets a walk run in two passes, the
// first updating every slot's sum and the second notifying the visitors, so
// the first pass's gain loads overlap instead of each waiting behind an
// opaque visitor call. Each slot's arithmetic order is fixed: the Neumaier
// adds in event order, and every kRecomputePeriod-th op an exact rebuild
// summed in ascending tx-id order.

class CompensatedEngine final : public InterferenceEngine {
 public:
  explicit CompensatedEngine(PropagationMatrix gains)
      : gains_(std::move(gains)) {}

  [[nodiscard]] std::size_t station_count() const override {
    return gains_.size();
  }
  [[nodiscard]] const char* name() const override { return "compensated"; }
  [[nodiscard]] double gain(StationId rx, StationId tx) const override {
    return gains_.gain(rx, tx);
  }

  void transmit_started(std::uint64_t tx_id, StationId from, Watts power,
                        const SenderVisitor& at_sender,
                        const AffectedVisitor& affected) override {
    const double power_w = power.value();
    active_.insert(tx_id, from, power_w);
    // By reciprocity row(from)[rx] == gain(rx, from): one stored double
    // per pair serves both directions.
    const PropagationMatrix::Row from_row = gains_.row(from);
    const std::size_t n = slot_rx_.size();
    walk_watts_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (slot_rx_[i] == from) continue;
      const double watts = from_row[slot_rx_[i]] * power_w;
      slot_sum_[i].add(watts);
      bump(i);
      walk_watts_[i] = watts;
    }
    if (!at_sender && !affected) return;
    for (std::size_t i = 0; i < n; ++i) {
      if (slot_rx_[i] == from) {
        if (at_sender) at_sender(live_.handle(i));
      } else if (affected) {
        affected(live_.handle(i), Watts{walk_watts_[i]});
      }
    }
  }

  void transmit_ended(std::uint64_t tx_id,
                      const AffectedVisitor& affected) override {
    const auto k = active_.find(tx_id);
    const StationId from = active_.from[k];
    const double power_w = active_.power_w[k];
    active_.erase(k);
    const PropagationMatrix::Row from_row = gains_.row(from);
    const std::size_t n = slot_rx_.size();
    walk_watts_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (slot_tx_[i] == tx_id || slot_rx_[i] == from) continue;
      const double watts = from_row[slot_rx_[i]] * power_w;
      slot_sum_[i].add(-watts);
      bump(i);
      walk_watts_[i] = watts;
    }
    if (!affected) return;
    for (std::size_t i = 0; i < n; ++i) {
      if (slot_tx_[i] == tx_id || slot_rx_[i] == from) continue;
      affected(live_.handle(i), Watts{walk_watts_[i]});
    }
  }

  [[nodiscard]] ReceptionHandle open_reception(
      std::uint64_t tx_id, StationId rx,
      const ContributionVisitor& contribution) override {
    (void)active_.find(tx_id);  // must be on the air
    const PropagationMatrix::Row rx_row = gains_.row(rx);
    CompensatedSum sum;
    for (std::size_t k = 0; k < active_.id.size(); ++k) {
      const StationId from = active_.from[k];
      if (active_.id[k] == tx_id || from == rx) continue;
      const double watts = rx_row[from] * active_.power_w[k];
      sum.add(watts);
      if (contribution) contribution(active_.id[k], Watts{watts});
    }

    const ReceptionHandle h = live_.open();
    slot_tx_.push_back(tx_id);
    slot_rx_.push_back(rx);
    slot_sum_.push_back(sum);
    slot_ops_.push_back(0);
    return h;
  }

  void close_reception(ReceptionHandle h) override {
    live_.close(h, slot_tx_, slot_rx_, slot_sum_, slot_ops_);
  }

  [[nodiscard]] std::size_t open_receptions() const override {
    return live_.size();
  }

  [[nodiscard]] Watts interference(ReceptionHandle h) const override {
    // max(0, ·): a fully-compensated sum of removals can still leave a
    // residue of a few ulps below zero; physical interference cannot.
    return Watts{thermal_w_ + std::max(0.0, slot_sum_[live_.slot(h)].value())};
  }

  [[nodiscard]] Watts recomputed_interference(
      ReceptionHandle h) const override {
    const std::uint32_t i = live_.slot(h);
    return Watts{thermal_w_ +
                 std::max(0.0, exact_sum(slot_tx_[i], slot_rx_[i]).value())};
  }

  [[nodiscard]] Watts power_at(StationId st) const override {
    const PropagationMatrix::Row st_row = gains_.row(st);
    CompensatedSum sum;
    for (std::size_t k = 0; k < active_.id.size(); ++k)
      sum.add(st_row[active_.from[k]] * active_.power_w[k]);
    return Watts{thermal_w_ + std::max(0.0, sum.value())};
  }

  void enable_mobility(geo::Placement placement,
                       std::shared_ptr<const PropagationModel> model,
                       LinearGain self_gain) override {
    DRN_EXPECTS(model != nullptr);
    DRN_EXPECTS(placement.size() == gains_.size());
    placement_ = std::move(placement);
    model_ = std::move(model);
    self_gain_ = self_gain.value();
  }

  void station_moved(StationId s, geo::Vec2 position) override {
    DRN_EXPECTS(s < gains_.size());
    DRN_EXPECTS(model_ != nullptr);  // enable_mobility() first
    // RF-idle precondition: no compensated sum may hold a contribution that
    // was added through the station's old gains.
    for (const StationId from : active_.from) DRN_EXPECTS(from != s);
    for (const StationId rx : slot_rx_) DRN_EXPECTS(rx != s);
    placement_[s] = position;
    for (StationId other = 0; other < gains_.size(); ++other) {
      if (other == s) continue;
      gains_.set_gain(s, other,
                      model_->power_gain(placement_[s], placement_[other]));
    }
    gains_.set_gain(s, s, LinearGain{self_gain_});
  }

 private:
  /// The interference of a reception of tx_id at rx summed afresh over the
  /// active set, in ascending tx-id order.
  [[nodiscard]] CompensatedSum exact_sum(std::uint64_t tx_id,
                                         StationId rx) const {
    const PropagationMatrix::Row rx_row = gains_.row(rx);
    CompensatedSum sum;
    for (std::size_t k = 0; k < active_.id.size(); ++k) {
      const StationId from = active_.from[k];
      if (active_.id[k] == tx_id || from == rx) continue;
      sum.add(rx_row[from] * active_.power_w[k]);
    }
    return sum;
  }

  void bump(std::size_t i) {
    if (++slot_ops_[i] >= kRecomputePeriod) {
      slot_sum_[i] = exact_sum(slot_tx_[i], slot_rx_[i]);
      slot_ops_[i] = 0;
    }
  }

  PropagationMatrix gains_;
  ActiveSet active_;
  // Open receptions, one live slot each, in no particular order.
  LiveSlots live_;
  std::vector<std::uint64_t> slot_tx_;
  std::vector<StationId> slot_rx_;
  std::vector<CompensatedSum> slot_sum_;  // excludes thermal
  std::vector<std::uint32_t> slot_ops_;
  std::vector<double> walk_watts_;  // per-slot delta of the current walk
  geo::Placement placement_;                        // mobility only
  std::shared_ptr<const PropagationModel> model_;   // mobility only
  double self_gain_ = 1.0;
};

// ---------------------------------------------------------------------------
// Near/far engine: exact near field over a spatial grid, aggregated far din.
//
// In-flight state is the same ActiveSet and LiveSlots as above, plus one map
// per cell role: transmit cells (the ids radiating there, in start order,
// and their summed power) and receive cells (the far-field din shared by the
// receptions there). A transmission's cell is grid_.cell_of(from): a station
// cannot move while it radiates. Every CompensatedSum gets its adds in a
// fixed order: open-time near sums and power_at's near part row-major over
// cells, then in start order within a cell; far-din rebuilds and exact
// near-field rebuilds in ascending id; transmit-cell loads and far dins in
// event order, reset exactly when a cell empties or a din loses its last
// contributor.

class NearFarEngine final : public InterferenceEngine {
 public:
  NearFarEngine(const geo::Placement& placement,
                std::shared_ptr<const PropagationModel> model,
                NearFarConfig config)
      : placement_(placement),
        model_(std::move(model)),
        config_(config),
        grid_(placement, config.cell.value() > 0.0
                             ? config.cell.value()
                             : config.cutoff.value() / 4.0) {
    DRN_EXPECTS(model_ != nullptr);
    DRN_EXPECTS(config_.cutoff.value() > 0.0);
    // Near = every cell whose Chebyshev distance is within the cutoff in
    // cell units; +1 so a pair straddling the cutoff is classified near
    // (erring exact) never far.
    range_ = static_cast<int>(config_.cutoff.value() / grid_.cell_m()) + 1;
  }

  [[nodiscard]] std::size_t station_count() const override {
    return placement_.size();
  }
  [[nodiscard]] const char* name() const override { return "nearfar"; }
  [[nodiscard]] double gain(StationId rx, StationId tx) const override {
    return pair_gain(rx, tx);
  }

  void transmit_started(std::uint64_t tx_id, StationId from, Watts power,
                        const SenderVisitor& at_sender,
                        const AffectedVisitor& affected) override {
    const double power_w = power.value();
    const std::int32_t cell = grid_.cell_of(from);
    active_.insert(tx_id, from, power_w);
    TxCell& tx_cell = tx_cells_[cell];
    tx_cell.ids.push_back(tx_id);
    tx_cell.power_w.add(power_w);

    // Far field: fold the new signal into the din of every occupied
    // receiver cell beyond the cutoff, then notify its receptions (none is
    // at the sender: its own cell is near).
    for (auto& [rx_cell, far] : far_) {
      if (grid_.chebyshev(cell, rx_cell) <= range_) continue;
      const double watts = power_w * cell_gain(cell, rx_cell);
      far.din_w.add(watts);
      ++far.contributors;
      if (affected)
        for (const ReceptionHandle h : far.handles) affected(h, Watts{watts});
    }

    // Near field: exact per-pair update of receptions in cells within range.
    for_each_occupied(far_, cell, [&](FarField& far) {
      for (const ReceptionHandle h : far.handles) {
        Slot& s = slot_at(h);
        if (s.rx == from) {
          if (at_sender) at_sender(h);
          continue;
        }
        if (s.tx_id == tx_id) continue;
        const double watts = pair_gain(s.rx, from) * power_w;
        s.near_w.add(watts);
        bump(s);
        if (affected) affected(h, Watts{watts});
      }
    });
  }

  void transmit_ended(std::uint64_t tx_id,
                      const AffectedVisitor& affected) override {
    const std::size_t k = active_.find(tx_id);
    const StationId from = active_.from[k];
    const double power_w = active_.power_w[k];
    active_.erase(k);
    const std::int32_t cell = grid_.cell_of(from);
    const auto cit = tx_cells_.find(cell);
    DRN_EXPECTS(cit != tx_cells_.end());
    std::vector<std::uint64_t>& ids = cit->second.ids;
    const auto idit = std::find(ids.begin(), ids.end(), tx_id);
    DRN_EXPECTS(idit != ids.end());
    ids.erase(idit);
    if (ids.empty()) {
      tx_cells_.erase(cit);  // exact reset: an idle cell carries no residue
    } else {
      cit->second.power_w.add(-power_w);
    }

    for (auto& [rx_cell, far] : far_) {
      if (grid_.chebyshev(cell, rx_cell) <= range_) continue;
      const double watts = power_w * cell_gain(cell, rx_cell);
      if (--far.contributors == 0) {
        far.din_w.reset();  // exact reset at quiescence
      } else {
        far.din_w.add(-watts);
      }
      for (const ReceptionHandle h : far.handles) {
        const Slot& s = slot_at(h);
        if (s.tx_id == tx_id || s.rx == from) continue;
        if (affected) affected(h, Watts{watts});
      }
    }

    for_each_occupied(far_, cell, [&](FarField& far) {
      for (const ReceptionHandle h : far.handles) {
        Slot& s = slot_at(h);
        if (s.tx_id == tx_id || s.rx == from) continue;
        const double watts = pair_gain(s.rx, from) * power_w;
        s.near_w.add(-watts);
        bump(s);
        if (affected) affected(h, Watts{watts});
      }
    });
  }

  [[nodiscard]] ReceptionHandle open_reception(
      std::uint64_t tx_id, StationId rx,
      const ContributionVisitor& contribution) override {
    const std::size_t k = active_.find(tx_id);
    Slot s;
    s.tx_id = tx_id;
    s.rx = rx;
    s.rx_cell = grid_.cell_of(rx);
    s.tx_power_w = active_.power_w[k];
    s.tx_cell = grid_.cell_of(active_.from[k]);

    // Near: exact sum over active transmissions in cells within range.
    for_each_occupied(tx_cells_, s.rx_cell, [&](const TxCell& tx_cell) {
      for (const std::uint64_t id : tx_cell.ids) {
        if (id == tx_id) continue;
        const std::size_t j = active_.find(id);
        const StationId from = active_.from[j];
        if (from == rx) continue;
        const double watts = pair_gain(rx, from) * active_.power_w[j];
        s.near_w.add(watts);
        if (contribution) contribution(id, Watts{watts});
      }
    });

    // Far: share (or build) the din aggregate for this receiver cell.
    const ReceptionHandle h = live_.open();
    FarField& far = far_[s.rx_cell];
    if (far.handles.empty()) {  // a new entry (emptied ones are erased)
      for_each_far(s.rx_cell, [&](std::size_t, double watts) {
        far.din_w.add(watts);
        ++far.contributors;
      });
    }
    far.handles.push_back(h);
    if (contribution) {
      // Per-interferer far contributions, for a caller that asks for every
      // interferer: the same cell-centre terms the aggregate sums.
      for_each_far(s.rx_cell, [&](std::size_t j, double watts) {
        if (active_.id[j] != tx_id && active_.from[j] != rx)
          contribution(active_.id[j], Watts{watts});
      });
    }
    slots_.push_back(s);
    return h;
  }

  void close_reception(ReceptionHandle h) override {
    const auto it = far_.find(slot_at(h).rx_cell);
    DRN_EXPECTS(it != far_.end());
    auto& handles = it->second.handles;
    const auto hit = std::find(handles.begin(), handles.end(), h);
    DRN_EXPECTS(hit != handles.end());
    handles.erase(hit);
    if (handles.empty()) far_.erase(it);
    live_.close(h, slots_);
  }

  [[nodiscard]] std::size_t open_receptions() const override {
    return live_.size();
  }

  [[nodiscard]] Watts interference(ReceptionHandle h) const override {
    const Slot& s = slot_at(h);
    const auto it = far_.find(s.rx_cell);
    DRN_EXPECTS(it != far_.end());
    double far = std::max(0.0, it->second.din_w.value());
    if (grid_.chebyshev(s.tx_cell, s.rx_cell) > range_) {
      // The reception's own signal sits in the far aggregate; take it out.
      far = std::max(
          0.0, far - s.tx_power_w * cell_gain(s.tx_cell, s.rx_cell));
    }
    return Watts{thermal_w_ + std::max(0.0, s.near_w.value()) + far};
  }

  [[nodiscard]] Watts recomputed_interference(
      ReceptionHandle h) const override {
    const Slot& s = slot_at(h);
    CompensatedSum far;
    for_each_far(s.rx_cell, [&](std::size_t k, double watts) {
      if (active_.id[k] != s.tx_id && active_.from[k] != s.rx) far.add(watts);
    });
    return Watts{thermal_w_ + std::max(0.0, near_sum(s).value()) +
                 std::max(0.0, far.value())};
  }

  [[nodiscard]] Watts power_at(StationId st) const override {
    const std::int32_t cell = grid_.cell_of(st);
    CompensatedSum sum;
    for_each_occupied(tx_cells_, cell, [&](const TxCell& tx_cell) {
      for (const std::uint64_t id : tx_cell.ids) {
        const std::size_t k = active_.find(id);
        sum.add(pair_gain(st, active_.from[k]) * active_.power_w[k]);
      }
    });
    for (const auto& [c, tx_cell] : tx_cells_) {
      if (grid_.chebyshev(c, cell) <= range_) continue;
      sum.add(std::max(0.0, tx_cell.power_w.value()) * cell_gain(c, cell));
    }
    return Watts{thermal_w_ + std::max(0.0, sum.value())};
  }

  void enable_mobility(geo::Placement placement,
                       std::shared_ptr<const PropagationModel> model,
                       LinearGain self_gain) override {
    // Nothing to set up: this engine already owns its placement and model
    // and evaluates every gain lazily from them.
    DRN_EXPECTS(placement.size() == placement_.size());
    (void)model;
    (void)self_gain;
  }

  void station_moved(StationId s, geo::Vec2 position) override {
    DRN_EXPECTS(s < placement_.size());
    // RF-idle precondition: the station contributes to no active near sum,
    // no cell load, and no far-field din, so only its future pairings see
    // the new position.
    for (const StationId from : active_.from) DRN_EXPECTS(from != s);
    for (const Slot& slot : slots_) DRN_EXPECTS(slot.rx != s);
    placement_[s] = position;
    grid_.move_station(s, position);
  }

 private:
  struct Slot {
    std::uint64_t tx_id = 0;
    StationId rx = kNoStation;
    std::int32_t rx_cell = 0;
    double tx_power_w = 0.0;
    std::int32_t tx_cell = 0;
    CompensatedSum near_w;  // exact near field, thermal excluded
    std::uint32_t ops = 0;
  };

  /// Per occupied transmit cell: the ids radiating there, in start order,
  /// and their summed power.
  struct TxCell {
    std::vector<std::uint64_t> ids;
    CompensatedSum power_w;
  };

  /// Per occupied receiver cell: the aggregated far-field din (Section 4's
  /// "din of distant transmitters") plus the open receptions sharing it.
  struct FarField {
    CompensatedSum din_w;
    int contributors = 0;
    std::vector<ReceptionHandle> handles;  // event (insertion) order
  };

  /// Visits `map`'s entries whose cell key lies within Chebyshev range_ of
  /// `cell`, row-major (the same order for_each_cell_in_range would visit
  /// them, so floating-point accumulation order is unchanged). One
  /// lower_bound per row instead of one find per cell: the near window is
  /// mostly empty, and this walks only occupied entries.
  template <typename Map, typename F>
  void for_each_occupied(Map& map, std::int32_t cell, F&& visit) const {
    const int cols = grid_.cols();
    const int cx = cell % cols;
    const int cy = cell / cols;
    const int y_lo = cy - range_ < 0 ? 0 : cy - range_;
    const int y_hi = cy + range_ >= grid_.rows() ? grid_.rows() - 1 : cy + range_;
    const int x_lo = cx - range_ < 0 ? 0 : cx - range_;
    const int x_hi = cx + range_ >= cols ? cols - 1 : cx + range_;
    for (int y = y_lo; y <= y_hi; ++y) {
      const std::int32_t row_hi = y * cols + x_hi;
      for (auto it = map.lower_bound(y * cols + x_lo);
           it != map.end() && it->first <= row_hi; ++it)
        visit(it->second);
    }
  }

  [[nodiscard]] double pair_gain(StationId rx, StationId tx) const {
    // gain(s, s): the default matrix diagonal (PropagationMatrix).
    if (rx == tx) return 1.0;
    return model_->power_gain(placement_[rx], placement_[tx]).value();
  }

  [[nodiscard]] double cell_gain(std::int32_t a, std::int32_t b) const {
    return model_->power_gain(grid_.cell_center(a), grid_.cell_center(b))
        .value();
  }

  [[nodiscard]] Slot& slot_at(ReceptionHandle h) {
    return slots_[live_.slot(h)];
  }
  [[nodiscard]] const Slot& slot_at(ReceptionHandle h) const {
    return slots_[live_.slot(h)];
  }

  /// Calls visit(k, watts) for every active transmission k beyond the cutoff
  /// from `rx_cell`, in ascending tx-id order, with its power through the
  /// cell-centre gain.
  template <typename F>
  void for_each_far(std::int32_t rx_cell, F&& visit) const {
    for (std::size_t k = 0; k < active_.id.size(); ++k) {
      const std::int32_t cell = grid_.cell_of(active_.from[k]);
      if (grid_.chebyshev(cell, rx_cell) <= range_) continue;
      visit(k, active_.power_w[k] * cell_gain(cell, rx_cell));
    }
  }

  /// A reception's near field summed afresh over the active set, in
  /// ascending tx-id order.
  [[nodiscard]] CompensatedSum near_sum(const Slot& s) const {
    CompensatedSum near;
    for (std::size_t k = 0; k < active_.id.size(); ++k) {
      const StationId from = active_.from[k];
      if (active_.id[k] == s.tx_id || from == s.rx) continue;
      if (grid_.chebyshev(grid_.cell_of(from), s.rx_cell) > range_) continue;
      near.add(pair_gain(s.rx, from) * active_.power_w[k]);
    }
    return near;
  }

  void bump(Slot& s) {
    if (++s.ops < kRecomputePeriod) return;
    s.near_w = near_sum(s);
    s.ops = 0;
  }

  geo::Placement placement_;
  std::shared_ptr<const PropagationModel> model_;
  NearFarConfig config_;
  geo::GridIndex grid_;
  int range_ = 1;
  ActiveSet active_;
  std::map<std::int32_t, TxCell> tx_cells_;
  std::map<std::int32_t, FarField> far_;
  LiveSlots live_;
  std::vector<Slot> slots_;
};

}  // namespace

void InterferenceEngine::station_moved(StationId s, geo::Vec2 position) {
  (void)s;
  (void)position;
  DRN_EXPECTS(false);  // this engine does not support mobility
}

void InterferenceEngine::enable_mobility(
    geo::Placement placement, std::shared_ptr<const PropagationModel> model,
    LinearGain self_gain) {
  (void)placement;
  (void)model;
  (void)self_gain;
  DRN_EXPECTS(false);  // this engine does not support mobility
}

std::optional<InterferenceEngineKind> parse_engine(std::string_view text) {
  if (text == "compensated") return InterferenceEngineKind::kCompensated;
  if (text == "nearfar") return InterferenceEngineKind::kNearFar;
  return std::nullopt;
}

const char* engine_name(InterferenceEngineKind kind) {
  switch (kind) {
    case InterferenceEngineKind::kCompensated: return "compensated";
    case InterferenceEngineKind::kNearFar: return "nearfar";
  }
  return "?";
}

PropagationMatrix make_dense_gains(const geo::Placement& placement,
                                   const PropagationModel& model,
                                   LinearGain self_gain) {
  DRN_EXPECTS(placement.size() <= kDenseMatrixGuardM);
  // drn-lint: allow(dense-matrix) — the sanctioned guarded route.
  return PropagationMatrix::from_placement(placement, model, self_gain);
}

std::unique_ptr<InterferenceEngine> make_compensated_engine(
    PropagationMatrix gains) {
  return std::make_unique<CompensatedEngine>(std::move(gains));
}

std::unique_ptr<InterferenceEngine> make_nearfar_engine(
    const geo::Placement& placement,
    std::shared_ptr<const PropagationModel> model, NearFarConfig config) {
  return std::make_unique<NearFarEngine>(placement, std::move(model), config);
}

}  // namespace drn::radio
