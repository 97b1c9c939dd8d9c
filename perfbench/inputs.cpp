#include "inputs.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <type_traits>

namespace perfbench {

namespace {

constexpr std::string_view kNames[] = {"line8_cbr", "fib_1m_zipf",
                                       "overload_guarded", "split_line_2d"};

// Sim-time shape of each workload: warm-up mark and timed run length.
// Sized so one repetition's run phase takes about a second of host time.
constexpr double kLine8Warm = 0.02, kLine8Run = 0.15;
constexpr double kFibWarm = 0.05, kFibRun = 2.0, kFibRatePps = 200e3;
constexpr double kOverloadWarm = 0.05, kOverloadRun = 1.0;
constexpr double kSplitWarm = 0.01, kSplitRun = 0.1;

std::uint32_t host_in(std::mt19937_64& rng, std::uint32_t prefix16) {
  // A host in prefix16/16, avoiding .0 and .255 in the last octet.
  const auto low = static_cast<std::uint32_t>(rng() & 0xFFFFu);
  return (prefix16 << 16) | (low & 0xFF00u) | (1u + (low & 0xFFu) % 254u);
}

/// `n64` flows of 64 B and `n1500` of 1500 B entering at `ingress`,
/// addressed into prefix16/16.  The seed draws destinations and phases
/// only: rates and the size mix stay fixed, so every seed offers the
/// same amount of work.
void add_cbr(Plan& plan, std::mt19937_64& rng, std::uint32_t first_id,
             std::uint32_t ingress, std::uint32_t prefix16, unsigned n64,
             unsigned n1500) {
  for (unsigned i = 0; i < n64 + n1500; ++i) {
    CbrFlow f;
    f.flow_id = first_id + i;
    f.ingress = ingress;
    f.dst = host_in(rng, prefix16);
    f.cos = static_cast<std::uint8_t>(i % 8);
    const bool small = i < n64;
    f.payload_bytes = small ? 64 : 1500;
    f.interval_s = small ? 20e-6 : 50e-6;
    f.start_s = f.interval_s * unit_draw(rng);
    plan.cbr.push_back(f);
  }
}

template <typename T>
void put(std::vector<std::uint8_t>& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  unsigned char raw[sizeof(T)];
  std::memcpy(raw, &v, sizeof(T));
  if constexpr (std::endian::native == std::endian::big) {
    std::reverse(raw, raw + sizeof(T));
  }
  for (const unsigned char c : raw) {
    out.push_back(c);
  }
}

}  // namespace

std::string_view to_string(Workload w) noexcept {
  return kNames[static_cast<std::size_t>(w)];
}

std::optional<Workload> workload_from_string(std::string_view name) noexcept {
  for (std::size_t i = 0; i < std::size(kNames); ++i) {
    if (kNames[i] == name) {
      return static_cast<Workload>(i);
    }
  }
  return std::nullopt;
}

double unit_draw(std::mt19937_64& rng) noexcept {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) noexcept {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------
// Zipf by rejection-inversion.  h is the unnormalised density x^-s, H
// its antiderivative shifted to be well-conditioned at s == 1.

namespace {

/// log1p(x) / x, accurate near 0.
double helper1(double x) {
  return std::abs(x) > 1e-8 ? std::log1p(x) / x
                            : 1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x));
}

/// (exp(x) - 1) / x, accurate near 0.
double helper2(double x) {
  return std::abs(x) > 1e-8
             ? std::expm1(x) / x
             : 1.0 + x * 0.5 * (1.0 + x * (1.0 / 3.0) * (1.0 + 0.25 * x));
}

}  // namespace

ZipfSampler::ZipfSampler(std::uint32_t n, double exponent)
    : n_(static_cast<double>(n)), exponent_(exponent) {
  h_integral_x1_ = h_integral(1.5) - 1.0;
  h_integral_n_ = h_integral(n_ + 0.5);
  s_ = 2.0 - h_integral_inverse(h_integral(2.5) - h(2.0));
}

double ZipfSampler::h(double x) const {
  return std::exp(-exponent_ * std::log(x));
}

double ZipfSampler::h_integral(double x) const {
  const double log_x = std::log(x);
  return helper2((1.0 - exponent_) * log_x) * log_x;
}

double ZipfSampler::h_integral_inverse(double x) const {
  double t = x * (1.0 - exponent_);
  t = std::max(t, -1.0);
  return std::exp(helper1(t) * x);
}

std::uint32_t ZipfSampler::sample(std::mt19937_64& rng) const {
  while (true) {
    const double u =
        h_integral_n_ + unit_draw(rng) * (h_integral_x1_ - h_integral_n_);
    const double x = h_integral_inverse(u);
    const double k = std::clamp(std::floor(x + 0.5), 1.0, n_);
    if (k - x <= s_ || u >= h_integral(k + 0.5) - h(k)) {
      return static_cast<std::uint32_t>(k);
    }
  }
}

// ---------------------------------------------------------------------

Plan make_plan(Workload workload, std::uint64_t seed, double scale) {
  Plan plan;
  plan.workload = workload;
  plan.seed = seed;
  std::mt19937_64 rng(sub_seed(seed, 0));

  switch (workload) {
    case Workload::kLine8Cbr:
      plan.warm_s = kLine8Warm;
      plan.stop_s = kLine8Warm + kLine8Run * scale;
      add_cbr(plan, rng, 1, 0, 0x0A01, 6, 2);
      break;

    case Workload::kSplitLine2d:
      plan.warm_s = kSplitWarm;
      plan.stop_s = kSplitWarm + kSplitRun * scale;
      add_cbr(plan, rng, 1, 0, 0x0A01, 3, 1);    // west -> east
      add_cbr(plan, rng, 101, 15, 0x0A02, 3, 1);  // east -> west
      break;

    case Workload::kFib1mZipf: {
      plan.warm_s = kFibWarm;
      plan.stop_s = kFibWarm + kFibRun * scale;
      // A power of two, so an odd multiplier permutes the host block.
      const double want = std::max(4096.0, scale * double(1u << 20));
      plan.fib_hosts = std::bit_floor(static_cast<std::uint32_t>(want));
      const std::uint32_t mask = plan.fib_hosts - 1;
      const auto mul = static_cast<std::uint32_t>(rng()) | 1u;
      const auto add = static_cast<std::uint32_t>(rng());
      const ZipfSampler zipf(plan.fib_hosts, 1.0);
      const auto expected =
          static_cast<std::size_t>(kFibRatePps * plan.stop_s * 1.05);
      plan.arrivals.at_s.reserve(expected);
      plan.arrivals.host.reserve(expected);
      double t = 0;
      while (true) {
        t += -std::log1p(-unit_draw(rng)) / kFibRatePps;
        if (t >= plan.stop_s) {
          break;
        }
        // Popularity rank -> host through a seeded bijection, so the
        // hot hosts scatter across the trie instead of sharing a path.
        const std::uint32_t rank = zipf.sample(rng) - 1;
        plan.arrivals.at_s.push_back(t);
        plan.arrivals.host.push_back((rank * mul + add) & mask);
      }
      break;
    }

    case Workload::kOverloadGuarded: {
      plan.warm_s = kOverloadWarm;
      plan.stop_s = kOverloadWarm + kOverloadRun * scale;
      plan.sample_interval_s = 0.01;
      net::LoadGenConfig& m = plan.mmpp;
      m.arrivals = net::LoadGenConfig::Arrivals::kMmpp;
      m.ingress = 0;
      m.dst = mpls::Ipv4Address{host_in(rng, 0x0A01)};
      m.rate_pps = 100e3;
      m.burst_rate_pps = 300e3;
      m.mean_sojourn = 5e-3;
      m.concurrent_flows = 4096;
      m.payload_bytes = 160;
      m.seed = sub_seed(seed, 1);
      m.start = 0;
      m.stop = plan.stop_s;
      const net::AttackKind kinds[] = {net::AttackKind::kSpoof,
                                       net::AttackKind::kTtlFlood};
      for (std::size_t i = 0; i < std::size(kinds); ++i) {
        net::AttackSpec a;
        a.kind = kinds[i];
        a.at = 0.005 * (1.0 + unit_draw(rng));
        a.duration = plan.stop_s - a.at;
        a.ingress = 0;
        a.rate_pps = 20e3;
        a.seed = sub_seed(seed, 2 + i);
        a.dst = mpls::Ipv4Address{host_in(rng, 0x0A01)};
        plan.attacks.push_back(a);
      }
      break;
    }
  }
  return plan;
}

std::vector<std::uint8_t> plan_bytes(const Plan& plan) {
  std::vector<std::uint8_t> out;
  put(out, static_cast<std::uint8_t>(plan.workload));
  put(out, plan.seed);
  put(out, plan.warm_s);
  put(out, plan.stop_s);
  for (const CbrFlow& f : plan.cbr) {
    put(out, f.flow_id);
    put(out, f.ingress);
    put(out, f.dst);
    put(out, f.cos);
    put(out, f.payload_bytes);
    put(out, f.interval_s);
    put(out, f.start_s);
  }
  put(out, plan.fib_hosts);
  for (std::size_t i = 0; i < plan.arrivals.at_s.size(); ++i) {
    put(out, plan.arrivals.at_s[i]);
    put(out, plan.arrivals.host[i]);
  }
  const net::LoadGenConfig& m = plan.mmpp;
  put(out, static_cast<std::uint8_t>(m.arrivals));
  put(out, m.dst.value);
  put(out, m.rate_pps);
  put(out, m.burst_rate_pps);
  put(out, m.mean_sojourn);
  put(out, m.seed);
  put(out, m.stop);
  for (const net::AttackSpec& a : plan.attacks) {
    put(out, static_cast<std::uint8_t>(a.kind));
    put(out, a.at);
    put(out, a.duration);
    put(out, a.rate_pps);
    put(out, a.seed);
    put(out, a.dst.value);
  }
  put(out, plan.sample_interval_s);
  return out;
}

}  // namespace perfbench
