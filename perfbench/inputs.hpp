// Seeded inputs of the four benchmark workloads.
//
// Everything a workload feeds the simulator is derived here from the
// benchmark seed before set-up starts: CBR flow phases and destinations,
// the Zipf destination stream of the FIB workload, and the seeds of the
// MMPP load generator and attack campaigns.  The same seed always gives
// the same inputs, byte for byte (see plan_bytes and the self-tests).
#pragma once

#include <cstdint>
#include <optional>
#include <random>
#include <string_view>
#include <vector>

#include "net/attack.hpp"
#include "net/loadgen.hpp"

namespace perfbench {

namespace net = empls::net;
namespace mpls = empls::mpls;

enum class Workload : std::uint8_t {
  kLine8Cbr,
  kFib1mZipf,
  kOverloadGuarded,
  kSplitLine2d,
};

[[nodiscard]] std::string_view to_string(Workload w) noexcept;
[[nodiscard]] std::optional<Workload> workload_from_string(
    std::string_view name) noexcept;

/// Uniform draw on [0, 1) from the top 53 bits of one generator output:
/// fixed arithmetic, so inputs do not depend on the standard library's
/// distribution implementations.
[[nodiscard]] double unit_draw(std::mt19937_64& rng) noexcept;

/// Derive an independent sub-seed (splitmix64 of seed + stream).
[[nodiscard]] std::uint64_t sub_seed(std::uint64_t seed,
                                     std::uint64_t stream) noexcept;

/// Zipf(s) ranks on [1, n] by rejection-inversion (Hoermann and
/// Derflinger 1996): O(1) memory and expected O(1) time per draw, so a
/// million-rank stream needs no CDF table.
class ZipfSampler {
 public:
  ZipfSampler(std::uint32_t n, double exponent);
  [[nodiscard]] std::uint32_t sample(std::mt19937_64& rng) const;

 private:
  [[nodiscard]] double h(double x) const;
  [[nodiscard]] double h_integral(double x) const;
  [[nodiscard]] double h_integral_inverse(double x) const;

  double n_;
  double exponent_;
  double h_integral_x1_;
  double h_integral_n_;
  double s_;
};

/// One constant-bit-rate flow: `interval` apart from `start` until the
/// plan's stop time, entering at node index `ingress`.
struct CbrFlow {
  std::uint32_t flow_id = 0;
  std::uint32_t ingress = 0;
  std::uint32_t dst = 0;
  std::uint8_t cos = 0;
  std::uint32_t payload_bytes = 0;
  double interval_s = 0;
  double start_s = 0;
};

/// Open-loop Poisson arrivals with pre-drawn destinations (host index
/// into the FIB's host block).
struct ArrivalSchedule {
  std::vector<double> at_s;
  std::vector<std::uint32_t> host;
};

struct Plan {
  Workload workload = Workload::kLine8Cbr;
  std::uint64_t seed = 0;
  /// Sim time of the warm-up mark; the timed run phase is
  /// [warm_s, stop_s), after which traffic stops and the network drains
  /// untimed.
  double warm_s = 0;
  double stop_s = 0;

  std::vector<CbrFlow> cbr;  // line8_cbr, split_line_2d

  // fib_1m_zipf: `fib_hosts` exact host routes starting at 10.0.0.0.
  std::uint32_t fib_hosts = 0;
  ArrivalSchedule arrivals;

  // overload_guarded: MMPP victim load plus attack campaigns (ingress
  // node ids are node indices: node 0 is the ingress LER).
  net::LoadGenConfig mmpp{};
  std::vector<net::AttackSpec> attacks;
  double sample_interval_s = 0;
};

/// `scale` shrinks every input (sim horizon, FIB size) for self-tests;
/// the benchmark itself always uses 1.
[[nodiscard]] Plan make_plan(Workload workload, std::uint64_t seed,
                             double scale = 1.0);

/// Canonical little-endian serialisation of every generated input.
[[nodiscard]] std::vector<std::uint8_t> plan_bytes(const Plan& plan);

/// First address of the FIB workload's host block (10.0.0.0).
inline constexpr std::uint32_t kFibHostBase = 0x0A000000u;
/// Flow-id block of the FIB workload's Zipf stream (one id per 256
/// hosts, so per-flow books stay small).
inline constexpr std::uint32_t kZipfFlowBase = 0x20000000u;

}  // namespace perfbench
