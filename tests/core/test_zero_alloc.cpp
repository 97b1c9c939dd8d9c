// Zero heap allocations per forwarded packet (DESIGN.md §8), with wire
// validation on — the router default — and the default scheduler.
//
// This binary replaces the global operator new with a counting one, so
// it holds only tests that want every allocation in the process seen.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/embedded_router.hpp"
#include "mpls/fec.hpp"
#include "net/ldp.hpp"
#include "net/network.hpp"
#include "net/traffic.hpp"
#include "sw/linear_engine.hpp"

namespace {

// Counts calls to operator new while armed.  The array, nothrow and
// sized-delete forms all route through these two.
bool g_counting = false;
std::size_t g_allocations = 0;

void* counted_alloc(std::size_t size, std::size_t align) {
  if (g_counting) {
    ++g_allocations;
  }
  if (size == 0) {
    size = 1;
  }
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace empls {
namespace {

/// Allocations made while `fn` runs.
template <typename Fn>
std::size_t allocations_during(Fn&& fn) {
  g_allocations = 0;
  g_counting = true;
  fn();
  g_counting = false;
  return g_allocations;
}

TEST(ZeroAlloc, CounterSeesAllocations) {
  const std::size_t n = allocations_during([] {
    auto v = std::make_unique<std::vector<int>>(16);
    v->push_back(1);
  });
  EXPECT_GE(n, 2u);
}

// An 8-node LER-LSR^6-LER line under CBR load below link capacity (the
// four flows send in phase, so the ingress engine still queues), one
// payload size per run (recycled packets keep their payload capacity, so
// a single size never regrows a buffer).  After a warm-up that grows
// every pool, queue and slab to its working size, forwarding must not
// allocate at all: every hop runs the wire validation, the label update
// and the event queue.
void expect_allocation_free_steady_state(std::size_t payload_bytes,
                                         double interval) {
  constexpr int kNodes = 8;
  net::Network net;
  net::ControlPlane cp(net);
  std::vector<net::NodeId> ids;
  for (int i = 0; i < kNodes; ++i) {
    core::RouterConfig cfg;
    ASSERT_TRUE(cfg.validate_wire) << "validation is the default";
    cfg.type = (i == 0 || i == kNodes - 1) ? hw::RouterType::kLer
                                           : hw::RouterType::kLsr;
    std::string name = "R";
    name += std::to_string(i);
    auto r = std::make_unique<core::EmbeddedRouter>(
        name, std::make_unique<sw::LinearEngine>(), cfg);
    auto* raw = r.get();
    ids.push_back(net.add_node(std::move(r)));
    cp.register_router(ids.back(), &raw->routing());
  }
  for (int i = 0; i + 1 < kNodes; ++i) {
    net.connect(ids[i], ids[i + 1], 1e9, 100e-6);
  }
  cp.establish_lsp(ids, *mpls::Prefix::parse("10.1.0.0/16"));

  constexpr double kStop = 0.05;
  const auto dst = *mpls::Ipv4Address::parse("10.1.0.9");
  std::vector<std::unique_ptr<net::CbrSource>> sources;
  for (std::uint32_t flow = 1; flow <= 4; ++flow) {
    net::FlowSpec spec{flow, ids.front(), {}, dst,
                       static_cast<std::uint8_t>(flow), payload_bytes,
                       0.0, kStop};
    sources.push_back(std::make_unique<net::CbrSource>(
        net, spec, nullptr, interval));
    sources.back()->start();
  }

  net.run_until(0.01);  // warm-up
  const std::uint64_t delivered_before = net.delivered_count();
  const std::size_t allocations =
      allocations_during([&] { net.run_until(0.04); });
  const std::uint64_t forwarded = net.delivered_count() - delivered_before;
  net.run();

  ASSERT_GT(forwarded, 1000u) << "the window must carry real traffic";
  EXPECT_EQ(allocations, 0u)
      << allocations << " heap allocations over " << forwarded
      << " packets forwarded across " << kNodes << " nodes";
  std::uint64_t malformed = 0;
  for (const auto id : ids) {
    malformed += net.node_as<core::EmbeddedRouter>(id).stats().malformed;
  }
  EXPECT_EQ(malformed, 0u);
  EXPECT_EQ(net.events().stats().events_heap_fallback, 0u);
}

TEST(ZeroAlloc, ValidatedLineForwardsSmallPacketsWithoutAllocating) {
  expect_allocation_free_steady_state(64, 20e-6);
}

TEST(ZeroAlloc, ValidatedLineForwardsLargePacketsWithoutAllocating) {
  expect_allocation_free_steady_state(1500, 100e-6);
}

}  // namespace
}  // namespace empls
