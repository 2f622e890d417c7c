#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "sim/comm.hpp"

namespace pml::sim {
namespace {

const ClusterSpec& frontera() { return cluster_by_name("Frontera"); }

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

std::string string_of(const std::vector<std::byte>& b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

TEST(Engine, PingPongDeliversPayloadAndTime) {
  Engine engine(frontera(), Topology{2, 1});
  auto msg = bytes_of("hello, rank 1");
  std::vector<std::byte> inbox(msg.size());

  engine.run([&](int rank) -> RankTask {
    Comm comm(engine, rank);
    if (rank == 0) {
      co_await comm.send(1, msg);
    } else {
      co_await comm.recv(0, inbox);
    }
  });

  EXPECT_EQ(string_of(inbox), "hello, rank 1");
  EXPECT_GT(engine.elapsed(), 0.0);
  // One small inter-node message: latency-dominated, around alpha.
  const NetworkModel& m = engine.model();
  EXPECT_LT(engine.elapsed(), 3.0 * m.inter_alpha() + 1e-6);
}

TEST(Engine, IntraNodeFasterThanInterNode) {
  auto time_pair = [&](Topology topo) {
    Engine engine(frontera(), topo);
    std::vector<std::byte> out(256), in(256);
    engine.run([&](int rank) -> RankTask {
      Comm comm(engine, rank);
      if (rank == 0) {
        co_await comm.send(1, out);
      } else {
        co_await comm.recv(0, in);
      }
    });
    return engine.elapsed();
  };
  EXPECT_LT(time_pair(Topology{1, 2}), time_pair(Topology{2, 1}));
}

TEST(Engine, SendrecvExchanges) {
  Engine engine(frontera(), Topology{1, 2});
  std::vector<std::vector<std::byte>> out = {bytes_of("from-zero"),
                                             bytes_of("from-one!")};
  std::vector<std::vector<std::byte>> in(2, std::vector<std::byte>(9));

  engine.run([&](int rank) -> RankTask {
    Comm comm(engine, rank);
    const int peer = 1 - rank;
    co_await comm.sendrecv(peer, out[static_cast<std::size_t>(rank)], peer,
                           in[static_cast<std::size_t>(rank)]);
  });

  EXPECT_EQ(string_of(in[0]), "from-one!");
  EXPECT_EQ(string_of(in[1]), "from-zero");
}

TEST(Engine, MessageOrderingFifoPerChannel) {
  Engine engine(frontera(), Topology{1, 2});
  std::vector<std::byte> first(4), second(4);

  engine.run([&](int rank) -> RankTask {
    Comm comm(engine, rank);
    if (rank == 0) {
      auto a = bytes_of("AAAA");
      auto b = bytes_of("BBBB");
      co_await comm.send(1, a);
      co_await comm.send(1, b);
    } else {
      co_await comm.recv(0, first);
      co_await comm.recv(0, second);
    }
  });
  EXPECT_EQ(string_of(first), "AAAA");
  EXPECT_EQ(string_of(second), "BBBB");
}

TEST(Engine, TagsSeparateChannels) {
  Engine engine(frontera(), Topology{1, 2});
  std::vector<std::byte> tagged7(4), tagged9(4);

  engine.run([&](int rank) -> RankTask {
    Comm comm(engine, rank);
    if (rank == 0) {
      auto seven = bytes_of("7777");
      auto nine = bytes_of("9999");
      // Post in the "wrong" order; tags must route them correctly.
      co_await comm.send(1, nine, /*tag=*/9);
      co_await comm.send(1, seven, /*tag=*/7);
    } else {
      co_await comm.recv(0, tagged7, /*tag=*/7);
      co_await comm.recv(0, tagged9, /*tag=*/9);
    }
  });
  EXPECT_EQ(string_of(tagged7), "7777");
  EXPECT_EQ(string_of(tagged9), "9999");
}

TEST(Engine, DeadlockDetected) {
  Engine engine(frontera(), Topology{1, 2});
  std::vector<std::byte> buf(8);
  EXPECT_THROW(engine.run([&](int rank) -> RankTask {
    Comm comm(engine, rank);
    // Both ranks receive, nobody sends.
    co_await comm.recv(1 - rank, buf);
  }),
               SimError);
}

TEST(Engine, SizeMismatchDetected) {
  Engine engine(frontera(), Topology{1, 2});
  std::vector<std::byte> big(16), small(8);
  EXPECT_THROW(engine.run([&](int rank) -> RankTask {
    Comm comm(engine, rank);
    if (rank == 0) {
      co_await comm.send(1, big);
    } else {
      co_await comm.recv(0, small);
    }
  }),
               SimError);
}

TEST(Engine, RankExceptionPropagates) {
  Engine engine(frontera(), Topology{1, 2});
  EXPECT_THROW(engine.run([&](int rank) -> RankTask {
    Comm comm(engine, rank);
    if (rank == 1) throw SimError("rank failure");
    co_return;
  }),
               Error);
}

TEST(Engine, RunTwiceRejected) {
  Engine engine(frontera(), Topology{1, 1});
  auto noop = [&](int) -> RankTask { co_return; };
  engine.run(noop);
  EXPECT_THROW(engine.run(noop), SimError);
}

TEST(Engine, InvalidPeerRejected) {
  Engine engine(frontera(), Topology{1, 2});
  std::vector<std::byte> buf(8);
  EXPECT_THROW(engine.run([&](int rank) -> RankTask {
    Comm comm(engine, rank);
    if (rank == 0) co_await comm.send(5, buf);  // no rank 5
  }),
               SimError);
}

TEST(Engine, DeterministicTimingAcrossRuns) {
  auto run_once = [&] {
    Engine engine(frontera(), Topology{2, 4}, SimOptions{0.1, 42});
    std::vector<std::vector<std::byte>> bufs(8, std::vector<std::byte>(1024));
    engine.run([&](int rank) -> RankTask {
      Comm comm(engine, rank);
      const int peer = rank ^ 1;
      co_await comm.sendrecv(peer, bufs[static_cast<std::size_t>(rank)], peer,
                             bufs[static_cast<std::size_t>(rank)]);
      const int far = (rank + 4) % 8;
      co_await comm.sendrecv(far, bufs[static_cast<std::size_t>(rank)], far,
                             bufs[static_cast<std::size_t>(rank)], 1);
    });
    return engine.elapsed();
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(Engine, NoiseChangesWithSeed) {
  auto run_seed = [&](std::uint64_t seed) {
    Engine engine(frontera(), Topology{2, 1}, SimOptions{0.2, seed});
    std::vector<std::byte> buf(1 << 16);
    engine.run([&](int rank) -> RankTask {
      Comm comm(engine, rank);
      if (rank == 0) {
        co_await comm.send(1, buf);
      } else {
        co_await comm.recv(0, buf);
      }
    });
    return engine.elapsed();
  };
  EXPECT_NE(run_seed(1), run_seed(2));
}

TEST(Engine, NicSerializesConcurrentInterNodeFlows) {
  // 4 ranks per node all sending cross-node at once share one NIC; the same
  // traffic with 1 rank per node across 8 nodes uses 8 NICs. With distinct
  // destination nodes per flow in both cases, serialisation shows up only
  // in the shared-NIC layout.
  const std::uint64_t big = 4u << 20;
  auto elapsed_for = [&](Topology topo, auto partner_of) {
    Engine engine(frontera(), topo);
    std::vector<std::byte> out(big), in(big);
    engine.run([&](int rank) -> RankTask {
      Comm comm(engine, rank);
      const int peer = partner_of(rank);
      co_await comm.sendrecv(peer, out, peer, in);
    });
    return engine.elapsed();
  };
  // Shared NIC: node0 = {0..3} each exchanging with node1 = {4..7}.
  const double shared =
      elapsed_for(Topology{2, 4}, [](int r) { return r < 4 ? r + 4 : r - 4; });
  // Private NICs: 8 nodes, 1 rank each, pairwise across nodes.
  const double private_nics =
      elapsed_for(Topology{8, 1}, [](int r) { return r ^ 1; });
  EXPECT_GT(shared, 3.0 * private_nics);
}

TEST(Engine, LocalComputeAdvancesClock) {
  Engine engine(frontera(), Topology{1, 1});
  engine.run([&](int rank) -> RankTask {
    Comm comm(engine, rank);
    comm.compute(1.5e-3);
    co_return;
  });
  EXPECT_DOUBLE_EQ(engine.elapsed(), 1.5e-3);
}

TEST(Engine, ChannelKeyRejectsOutOfRangeTags) {
  // Tags are packed into 16 bits of the channel key; out-of-range values
  // must throw instead of silently aliasing another channel.
  Engine engine(frontera(), Topology{1, 2});
  std::vector<std::byte> buf(8);
  EXPECT_THROW(engine.run([&](int rank) -> RankTask {
    Comm comm(engine, rank);
    if (rank == 0) co_await comm.send(1, buf, /*tag=*/1 << 16);
  }),
               SimError);

  Engine engine2(frontera(), Topology{1, 2});
  EXPECT_THROW(engine2.run([&](int rank) -> RankTask {
    Comm comm(engine2, rank);
    if (rank == 0) co_await comm.send(1, buf, /*tag=*/-1);
  }),
               SimError);
}

TEST(Engine, ChannelKeyAcceptsMaxTag) {
  Engine engine(frontera(), Topology{1, 2});
  std::vector<std::byte> out(8), in(8);
  engine.run([&](int rank) -> RankTask {
    Comm comm(engine, rank);
    if (rank == 0) {
      co_await comm.send(1, out, /*tag=*/(1 << 16) - 1);
    } else {
      co_await comm.recv(0, in, /*tag=*/(1 << 16) - 1);
    }
  });
  EXPECT_GT(engine.elapsed(), 0.0);
}

TEST(Engine, ResetMatchesFreshEngineTiming) {
  const SimOptions opts{0.2, 77};
  auto workload = [](Engine& engine) {
    std::vector<std::vector<std::byte>> bufs(8, std::vector<std::byte>(4096));
    engine.run([&](int rank) -> RankTask {
      Comm comm(engine, rank);
      const int peer = rank ^ 1;
      co_await comm.sendrecv(peer, bufs[static_cast<std::size_t>(rank)], peer,
                             bufs[static_cast<std::size_t>(rank)]);
      const int far = (rank + 4) % 8;
      co_await comm.sendrecv(far, bufs[static_cast<std::size_t>(rank)], far,
                             bufs[static_cast<std::size_t>(rank)], 1);
    });
    return engine.elapsed();
  };

  Engine fresh(frontera(), Topology{2, 4}, opts);
  const double expected = workload(fresh);

  // Dirty the engine with a different topology and seed before resetting.
  Engine reused(frontera(), Topology{4, 1}, SimOptions{0.05, 3});
  std::vector<std::byte> buf(2048);
  reused.run([&](int rank) -> RankTask {
    Comm comm(reused, rank);
    const int peer = rank ^ 1;
    co_await comm.sendrecv(peer, buf, peer, buf);
  });
  reused.reset(frontera(), Topology{2, 4}, opts);
  EXPECT_EQ(workload(reused), expected);
}

TEST(Engine, ResetReusesChannelAndPoolCapacity) {
  // Regression test for unbounded channel-table growth: running the same
  // workload through reset() cycles must not keep growing engine storage.
  Engine engine(frontera(), Topology{2, 4});
  auto workload = [&] {
    std::vector<std::byte> buf(512);
    engine.run([&](int rank) -> RankTask {
      Comm comm(engine, rank);
      for (int k = 1; k < 8; ++k) {
        const int peer = rank ^ k;
        co_await comm.sendrecv(peer, buf, peer, buf, /*tag=*/k);
      }
    });
  };
  workload();
  engine.reset(frontera(), Topology{2, 4});
  workload();
  const std::size_t slots = engine.channel_table_slots();
  const std::size_t pool = engine.pending_pool_capacity();
  ASSERT_GT(engine.channels_in_use(), 0u);
  for (int i = 0; i < 10; ++i) {
    engine.reset(frontera(), Topology{2, 4});
    workload();
    EXPECT_EQ(engine.channel_table_slots(), slots);
    EXPECT_EQ(engine.pending_pool_capacity(), pool);
  }
}

TEST(Engine, ScratchKeepsVerifySlotsApartAndSharesOneTimingOnlyArena) {
  Engine verify(frontera(), Topology{1, 2});
  const std::span<std::byte> flat = verify.scratch(0, kFlatScratchSlot, 64);
  EXPECT_NE(flat.data(), verify.scratch(0, 0, 64).data());
  EXPECT_NE(flat.data(), verify.scratch(0, 1, 64).data());
  EXPECT_NE(flat.data(), verify.scratch(1, kFlatScratchSlot, 64).data());
  EXPECT_THROW(verify.scratch(0, kFlatScratchSlot + 1, 64), SimError);

  Engine timing(frontera(), Topology{1, 2},
                SimOptions{.payload = PayloadMode::kTimingOnly});
  const std::span<std::byte> arena = timing.scratch(0, 0, 64);
  EXPECT_EQ(timing.scratch(1, kFlatScratchSlot, 32).data(), arena.data());
  EXPECT_THROW(timing.scratch(0, kFlatScratchSlot + 1, 64), SimError);
}

TEST(Engine, OutgrownTimingOnlyArenaLivesUntilReset) {
  // Other ranks may still hold spans into the old arena: a sanitizer build
  // reports the write below if growing the arena freed it.
  Engine engine(frontera(), Topology{1, 2},
                SimOptions{.payload = PayloadMode::kTimingOnly});
  const std::span<std::byte> old = engine.scratch(0, 0, 64);
  const std::span<std::byte> grown = engine.scratch(1, 0, 1 << 20);
  EXPECT_NE(grown.data(), old.data());
  std::memset(old.data(), 0, old.size());
}

TEST(Engine, WaitAllFoldsCompletionTimes) {
  Engine engine(frontera(), Topology{2, 1});
  std::vector<std::byte> a(1 << 18), b(1 << 18);
  std::vector<std::byte> ra(1 << 18), rb(1 << 18);
  engine.run([&](int rank) -> RankTask {
    Comm comm(engine, rank);
    if (rank == 0) {
      std::vector<RequestId> reqs;
      reqs.push_back(comm.isend(1, a, 0));
      reqs.push_back(comm.isend(1, b, 1));
      co_await comm.wait_all(reqs);
    } else {
      std::vector<RequestId> reqs;
      reqs.push_back(comm.irecv(0, ra, 0));
      reqs.push_back(comm.irecv(0, rb, 1));
      co_await comm.wait_all(reqs);
    }
  });
  // Two 256 KiB messages through one NIC: at least twice the wire time.
  const double wire = engine.model().wire_time(1 << 18);
  EXPECT_GE(engine.elapsed(), 2.0 * wire);
}

}  // namespace
}  // namespace pml::sim
