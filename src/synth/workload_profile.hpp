// Workload profiles calibrated to the paper's Table III.
//
// The paper captures PARSEC-3.0 memory traces with COTSon; offline we
// synthesize traces whose Table III columns (working-set size, read/write
// counts) match exactly and whose locality structure reproduces the
// per-workload behaviours the paper calls out:
//   * blackscholes    — read-only (Fig. 2a discussion)
//   * streamcluster   — tiny footprint + huge read burst => dynamic-power
//                       dominated (Fig. 1), hybrid-hostile (Sec. V.B)
//   * canneal,
//     fluidanimate    — pages migrate to NVM and bounce straight back =>
//                       hot-set churn (Fig. 2a discussion)
//   * raytrace, vips  — access bursts sit near the migration-benefit
//                       threshold (Sec. V.B), making threshold choice risky
#pragma once

#include <compare>
#include <cstdint>
#include <span>
#include <string>

namespace hymem::synth {

/// Generator parameters for one synthetic workload.
struct WorkloadProfile {
  std::string name;

  // --- Table III columns (exact targets) ---
  std::uint64_t working_set_kb = 0;  ///< Footprint; pages = ws_kb*1024/page.
  std::uint64_t reads = 0;           ///< Total read requests.
  std::uint64_t writes = 0;          ///< Total write requests.

  /// ROI wall-clock duration used to prorate static power (Eq. 3). COTSon
  /// timing is not available offline; these durations are calibrated so the
  /// DRAM-only static-power shares reproduce Fig. 1 (60-80% static
  /// everywhere, with streamcluster dynamic-dominated and near-idle
  /// blackscholes static-dominated) under the Table IV constants.
  double roi_seconds = 1.0;

  // --- Locality structure ---
  double zipf_alpha = 0.8;      ///< Popularity skew inside the hot set.
  double hot_fraction = 0.2;    ///< Fraction of pages forming the hot set.
  double hot_locality = 0.8;    ///< Probability an access targets the hot set.
  double scan_fraction = 0.05;  ///< Fraction of accesses from sequential scans.
  /// Fraction of the footprint forming the *active region* at any moment
  /// (scans, hot set and warm accesses stay inside it). PARSEC phases touch
  /// far less than the total footprint at a time; with memory = 75% of the
  /// footprint, regions below 0.75 keep steady-state miss ratios near the
  /// paper's (~1e-4), while regions near 1.0 model capacity-thrashing loads.
  double resident_fraction = 0.65;
  /// Probability of a uniform access over the WHOLE footprint (the only
  /// steady-state source of page faults for stable-region workloads).
  double cold_fraction = 0.001;
  double burst_prob = 0.05;     ///< Probability a hot access opens a burst.
  /// Probability a warm (in-region, non-hot) access opens a burst. Warm
  /// bursts hit NVM-resident pages, so this knob creates the near-threshold
  /// migration candidates the paper discusses for raytrace/vips.
  double warm_burst_prob = 0.0;
  double burst_mean = 4.0;      ///< Mean extra repetitions per burst.
  std::uint64_t churn_period = 0;  ///< Accesses between hot-set rotations (0 = stable).
  double churn_shift = 0.0;        ///< Fraction of the hot set replaced per rotation.
  /// Fraction of the HOT set that forms the write-hot subset.
  double write_page_fraction = 0.3;
  /// Probability a write is redirected into the write-hot subset. High
  /// values model the strong write locality real applications exhibit
  /// (write-hot pages fit in DRAM, so almost no writes reach NVM); low
  /// values scatter writes and punish migrate-on-write policies.
  double write_locality = 0.9;

  std::uint64_t total_accesses() const { return reads + writes; }
  double write_fraction() const {
    const auto t = total_accesses();
    return t ? static_cast<double>(writes) / static_cast<double>(t) : 0.0;
  }
  /// Footprint in pages for a given page size.
  std::uint64_t footprint_pages(std::uint64_t page_size) const;

  /// Returns a copy with read/write counts AND the working-set size divided
  /// by `divisor` (>=1). Shape-stable: the read/write mix, accesses-per-page
  /// and (with roi_seconds unchanged) the static power per request are all
  /// preserved, so paper-shaped experiments run `divisor`x faster.
  WorkloadProfile scaled(std::uint64_t divisor) const;

  /// Field-wise: two profiles generate the same trace only when every field
  /// (not just the name) matches. The ordering only keys maps.
  bool operator==(const WorkloadProfile&) const = default;
  auto operator<=>(const WorkloadProfile&) const = default;
};

/// The twelve PARSEC workloads of Table III (swaptions excluded, as in the
/// paper). Order matches the paper's figures.
std::span<const WorkloadProfile> parsec_profiles();

/// Looks up a profile by (case-sensitive) name; throws std::out_of_range.
const WorkloadProfile& parsec_profile(const std::string& name);

}  // namespace hymem::synth
