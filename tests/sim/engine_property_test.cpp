// Property tests for the discrete-event engine: randomized communication
// patterns must deliver every payload intact, respect causality, and
// converge statistically under noise.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "sim/comm.hpp"
#include "sim/engine.hpp"

namespace pml::sim {
namespace {

const ClusterSpec& frontera() { return cluster_by_name("Frontera"); }

/// Random permutation exchange: every rank sends a unique stamped payload
/// to a random target (a permutation, so exactly one message per rank in
/// each direction); all payloads must arrive intact.
class RandomPermutationExchange : public ::testing::TestWithParam<int> {};

TEST_P(RandomPermutationExchange, AllPayloadsDelivered) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const int p = 2 + static_cast<int>(rng.uniform_index(14));  // 2..15 ranks
  const Topology topo{1 + static_cast<int>(rng.uniform_index(3)), p};

  // Random permutation of targets.
  std::vector<int> target(static_cast<std::size_t>(topo.world_size()));
  for (std::size_t i = 0; i < target.size(); ++i) {
    target[i] = static_cast<int>(i);
  }
  rng.shuffle(target);
  std::vector<int> source(target.size());
  for (std::size_t i = 0; i < target.size(); ++i) {
    source[static_cast<std::size_t>(target[i])] = static_cast<int>(i);
  }

  const std::size_t bytes = 1 + rng.uniform_index(4096);
  std::vector<std::vector<std::byte>> outbox(target.size());
  std::vector<std::vector<std::byte>> inbox(target.size());
  for (std::size_t r = 0; r < target.size(); ++r) {
    outbox[r].resize(bytes);
    for (std::size_t i = 0; i < bytes; ++i) {
      outbox[r][i] = static_cast<std::byte>((r * 131 + i) & 0xff);
    }
    inbox[r].resize(bytes);
  }

  Engine engine(frontera(), topo, SimOptions{0.05, 42});
  engine.run([&](int rank) -> RankTask {
    Comm comm(engine, rank);
    std::vector<RequestId> reqs;
    reqs.push_back(comm.isend(target[static_cast<std::size_t>(rank)],
                              outbox[static_cast<std::size_t>(rank)]));
    reqs.push_back(comm.irecv(source[static_cast<std::size_t>(rank)],
                              inbox[static_cast<std::size_t>(rank)]));
    co_await comm.wait_all(reqs);
  });

  for (std::size_t r = 0; r < target.size(); ++r) {
    const auto& expected = outbox[static_cast<std::size_t>(source[r])];
    EXPECT_EQ(0, std::memcmp(inbox[r].data(), expected.data(), bytes))
        << "rank " << r;
  }
  EXPECT_GT(engine.elapsed(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPermutationExchange,
                         ::testing::Range(1, 17));

/// Elapsed time must be monotone in payload size for a fixed pattern.
TEST(EngineProperty, ElapsedMonotoneInPayload) {
  double prev = 0.0;
  for (std::uint64_t bytes = 64; bytes <= (1u << 20); bytes <<= 2) {
    Engine engine(frontera(), Topology{2, 4});
    std::vector<std::byte> buf(bytes), in(bytes);
    engine.run([&](int rank) -> RankTask {
      Comm comm(engine, rank);
      const int peer = rank ^ 4;  // cross-node pairs
      co_await comm.sendrecv(peer, buf, peer, in);
    });
    EXPECT_GE(engine.elapsed(), prev);
    prev = engine.elapsed();
  }
}

/// With log-normal noise, the mean over many runs approaches the
/// noise-free time (median-1 jitter, sigma small).
TEST(EngineProperty, NoiseAveragesOut) {
  auto elapsed_with = [&](SimOptions opts) {
    Engine engine(frontera(), Topology{2, 1}, opts);
    std::vector<std::byte> buf(32 << 10), in(32 << 10);
    engine.run([&](int rank) -> RankTask {
      Comm comm(engine, rank);
      if (rank == 0) {
        co_await comm.send(1, buf);
      } else {
        co_await comm.recv(0, in);
      }
    });
    return engine.elapsed();
  };
  const double clean = elapsed_with(SimOptions{});
  double sum = 0.0;
  const int runs = 300;
  for (int i = 0; i < runs; ++i) {
    sum += elapsed_with(SimOptions{0.05, static_cast<std::uint64_t>(i)});
  }
  EXPECT_NEAR(sum / runs / clean, 1.0, 0.02);
}

/// A chain of dependent messages accumulates latency hop by hop
/// (causality: the engine cannot deliver hop k+1 before hop k).
TEST(EngineProperty, ChainLatencyAccumulates) {
  std::vector<double> elapsed_for_length;
  for (const int hops : {1, 2, 4, 8}) {
    Engine engine(frontera(), Topology{1, 9});
    std::vector<std::byte> buf(256);
    engine.run([&](int rank) -> RankTask {
      Comm comm(engine, rank);
      if (rank > hops) co_return;
      if (rank > 0) co_await comm.recv(rank - 1, buf);
      if (rank < hops) co_await comm.send(rank + 1, buf);
    });
    elapsed_for_length.push_back(engine.elapsed());
  }
  for (std::size_t i = 1; i < elapsed_for_length.size(); ++i) {
    EXPECT_GT(elapsed_for_length[i], elapsed_for_length[i - 1]);
  }
  // Doubling the chain roughly doubles the time (pure latency chain).
  EXPECT_NEAR(elapsed_for_length[3] / elapsed_for_length[2], 2.0, 0.4);
}

/// Many-to-one incast: serialisation through the receiver's node RX port
/// makes total time scale with the number of senders for large payloads.
TEST(EngineProperty, IncastSerialisesOnReceiverNic) {
  auto incast = [&](int senders) {
    Engine engine(frontera(), Topology{senders + 1, 1});
    std::vector<std::byte> buf(1 << 20);
    std::vector<std::vector<std::byte>> in(
        static_cast<std::size_t>(senders),
        std::vector<std::byte>(1 << 20));
    engine.run([&](int rank) -> RankTask {
      Comm comm(engine, rank);
      if (rank == 0) {
        std::vector<RequestId> reqs;
        for (int s = 1; s <= senders; ++s) {
          reqs.push_back(
              comm.irecv(s, in[static_cast<std::size_t>(s - 1)], s));
        }
        co_await comm.wait_all(reqs);
      } else {
        co_await comm.send(0, buf, rank);
      }
    });
    return engine.elapsed();
  };
  const double two = incast(2);
  const double eight = incast(8);
  EXPECT_GT(eight, 3.0 * two);
}

}  // namespace
}  // namespace pml::sim
