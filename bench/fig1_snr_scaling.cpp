// Figure 1: decline of the signal-to-noise ratio as the number of stations M
// grows, one curve per duty cycle eta in {0.05, 0.1, 0.2, 0.5, 1} (Eq. 15),
// plus a Monte-Carlo validation column for laptop-feasible M under the
// simulator's 1/r^2 physics.
#include <cmath>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "analysis/ascii_plot.hpp"
#include "analysis/table.hpp"
#include "common/parallel.hpp"
#include "radio/noise_growth.hpp"
#include "radio/units.hpp"
#include "runner/summary.hpp"

namespace {

using drn::analysis::Table;

void analytic_curves() {
  std::cout << "Figure 1 — SNR (dB) of a nearest-neighbour transmission vs "
               "log10(M)\n"
               "Each column is one duty-cycle curve (Eq. 15: SNR = 1/(eta ln "
               "M)).\n\n";
  const double etas[] = {0.05, 0.1, 0.2, 0.5, 1.0};
  Table t({"log10(M)", "eta=0.05", "eta=0.1", "eta=0.2", "eta=0.5", "eta=1"});
  for (int exp10 = 2; exp10 <= 12; ++exp10) {
    const auto m = static_cast<std::size_t>(std::pow(10.0, exp10));
    std::vector<std::string> row{Table::num(std::uint64_t(exp10))};
    for (double eta : etas)
      row.push_back(
          Table::num(drn::radio::nearest_neighbor_snr_db(m, eta).value(), 2));
    t.add_row(row);
  }
  t.print(std::cout);

  std::cout << "\nAs a figure (one glyph per eta curve):\n\n";
  drn::analysis::AsciiPlot plot(70, 18);
  plot.y_label("SNR (dB)");
  plot.x_label("log10(number of stations)");
  const char glyphs[] = {'a', 'b', 'c', 'd', 'e'};
  for (std::size_t i = 0; i < 5; ++i) {
    drn::analysis::Series s;
    s.label = "eta=" + Table::num(etas[i], 2);
    s.glyph = glyphs[i];
    for (int exp10 = 2; exp10 <= 12; ++exp10) {
      s.x.push_back(exp10);
      s.y.push_back(
          drn::radio::nearest_neighbor_snr_db(
              static_cast<std::size_t>(std::pow(10.0, exp10)), etas[i])
              .value());
    }
    plot.add(std::move(s));
  }
  plot.print(std::cout);

  std::cout << "\nPaper check: the curves decline only logarithmically; at "
               "eta=1 the SNR is "
            << Table::num(
                   drn::radio::nearest_neighbor_snr_db(100000000, 1.0).value(),
                   1)
            << " dB even at 10^8 stations.\n\n";
}

void monte_carlo_validation() {
  std::cout << "Monte-Carlo validation (random uniform-disc placements, "
               "random active sets, 1/r^2 loss; trials fanned across all "
               "hardware threads, per-trial RNG split from the trial "
               "index so the table is thread-count-invariant):\n\n";
  constexpr std::uint64_t kMasterSeed = 20240706;
  Table t({"M", "eta", "analytic dB", "measured dB", "95% CI", "trials"});
  std::uint64_t combo = 0;
  for (std::size_t m : {std::size_t{500}, std::size_t{5000},
                        std::size_t{20000}}) {
    for (double eta : {0.2, 0.5, 1.0}) {
      const std::size_t trials = m > 10000 ? 20 : 50;
      const std::uint64_t base_tag = combo++ << 16;
      // Each trial writes its own slot; the reduction below runs in index
      // order, so the table is bit-identical for any worker count.
      std::vector<double> samples(trials,
                                  -std::numeric_limits<double>::infinity());
      drn::parallel_for(trials, drn::hardware_jobs(), [&](std::size_t i) {
        drn::Rng rng = drn::Rng(kMasterSeed).split(base_tag | i);
        const auto s =
            drn::radio::sample_nearest_neighbor_snr(m, drn::radio::Meters{100.0},
                                                    eta, rng);
        if (s.snr.value() > 0.0 && std::isfinite(s.snr.value()))
          samples[i] = drn::radio::to_db(s.snr.value());
      });
      drn::runner::SummaryStats db;
      for (double snr_db : samples)
        if (std::isfinite(snr_db)) db.add(snr_db);
      t.add_row({Table::num(std::uint64_t(m)), Table::num(eta, 2),
                 Table::num(drn::radio::nearest_neighbor_snr_db(m, eta).value(), 2),
                 Table::num(db.mean(), 2),
                 "+-" + Table::num(db.ci95_half_width(), 2),
                 Table::num(std::uint64_t(trials))});
    }
  }
  t.print(std::cout);
  std::cout << "\nThe measured means track Eq. 15 (the closed form idealises "
               "the nearest-neighbour distance, so a ~2 dB offset is "
               "expected).\n";
}

void dual_slope_note() {
  std::cout << "\nObstructed (dual-slope) propagation removes the divergence "
               "entirely:\n\n";
  Table t({"model", "total interference (rel.)", "outer bound"});
  const double sigma = 0.01;
  const double r0 = drn::radio::characteristic_length(sigma).value();
  t.add_row({"free space, disc R = 100 R0",
             Table::num(
                 drn::radio::annulus_interference(
                     sigma, 1.0, drn::radio::Meters{r0},
                     drn::radio::Meters{100.0 * r0})
                     .value(),
                 2),
             "radio horizon (paper)"});
  t.add_row({"free space, disc R = 10000 R0",
             Table::num(
                 drn::radio::annulus_interference(
                     sigma, 1.0, drn::radio::Meters{r0},
                     drn::radio::Meters{10000.0 * r0})
                     .value(),
                 2),
             "still growing (ln R)"});
  t.add_row({"dual-slope (bp = 10 R0, alpha 4)",
             Table::num(
                 drn::radio::dual_slope_total_interference(
                     sigma, 1.0, drn::radio::Meters{r0},
                     drn::radio::Meters{10.0 * r0}, 4.0)
                     .value(),
                 2),
             "INFINITY - converges"});
  t.print(std::cout);
  std::cout << "\n'The slightest bit of atmospheric attenuation ... would "
               "make the integral converge' (Section 4) — with two-ray "
               "1/r^4 beyond a breakpoint, no horizon assumption is needed "
               "at all.\n";
}

}  // namespace

int main() {
  analytic_curves();
  monte_carlo_validation();
  dual_slope_note();
  return 0;
}
