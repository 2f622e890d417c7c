// Exact virtual times of the three schedules whose routing is a closed form
// of (rank, step, world): recursive-doubling allgather, neighbor-exchange
// allgather and recursive-doubling alltoall. The values were recorded from
// the plan-table implementation these schedules replaced, so any change to
// a partner, a byte count, a tag or a copy charge shows here as a changed
// double. Exact equality is intentional (see timing_equivalence_test.cpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "coll/runner.hpp"
#include "sim/hardware.hpp"

namespace pml::coll {
namespace {

using sim::PayloadMode;
using sim::SimOptions;
using sim::Topology;

struct PinnedTime {
  Algorithm algorithm;
  int nodes;
  int ppn;
  std::uint64_t bytes;
  double noise_sigma;
  double seconds;
};

// MRI, seed 2024, every supported (algorithm, world, block size, noise).
constexpr PinnedTime kPinned[] = {
    {Algorithm::kAgRecursiveDoubling, 1, 1, 1, 0.0, 0x1.b6438d9e073b8p-36},
    {Algorithm::kAgRecursiveDoubling, 1, 1, 1, 0.015, 0x1.b6438d9e073b8p-36},
    {Algorithm::kAgRecursiveDoubling, 1, 1, 4096, 0.0, 0x1.b6438d9e073b8p-24},
    {Algorithm::kAgRecursiveDoubling, 1, 1, 4096, 0.015, 0x1.b6438d9e073b8p-24},
    {Algorithm::kAgRecursiveDoubling, 1, 1, 65536, 0.0, 0x1.b6438d9e073b8p-20},
    {Algorithm::kAgRecursiveDoubling, 1, 1, 65536, 0.015, 0x1.b6438d9e073b8p-20},
    {Algorithm::kAgRdComm, 1, 1, 1, 0.0, 0x1.b6438d9e073b8p-36},
    {Algorithm::kAgRdComm, 1, 1, 1, 0.015, 0x1.b6438d9e073b8p-36},
    {Algorithm::kAgRdComm, 1, 1, 4096, 0.0, 0x1.b6438d9e073b8p-24},
    {Algorithm::kAgRdComm, 1, 1, 4096, 0.015, 0x1.b6438d9e073b8p-24},
    {Algorithm::kAgRdComm, 1, 1, 65536, 0.0, 0x1.b6438d9e073b8p-20},
    {Algorithm::kAgRdComm, 1, 1, 65536, 0.015, 0x1.b6438d9e073b8p-20},
    {Algorithm::kAaRecursiveDoubling, 1, 1, 1, 0.0, 0x1.b6438d9e073b8p-36},
    {Algorithm::kAaRecursiveDoubling, 1, 1, 1, 0.015, 0x1.b6438d9e073b8p-36},
    {Algorithm::kAaRecursiveDoubling, 1, 1, 4096, 0.0, 0x1.b6438d9e073b8p-24},
    {Algorithm::kAaRecursiveDoubling, 1, 1, 4096, 0.015, 0x1.b6438d9e073b8p-24},
    {Algorithm::kAaRecursiveDoubling, 1, 1, 65536, 0.0, 0x1.b6438d9e073b8p-20},
    {Algorithm::kAaRecursiveDoubling, 1, 1, 65536, 0.015, 0x1.b6438d9e073b8p-20},
    {Algorithm::kAgRecursiveDoubling, 1, 2, 1, 0.0, 0x1.7c8b5749faa2p-22},
    {Algorithm::kAgRecursiveDoubling, 1, 2, 1, 0.015, 0x1.8175e8d4f3a18p-22},
    {Algorithm::kAgRecursiveDoubling, 1, 2, 4096, 0.0, 0x1.2bcfb5fe48a7cp-21},
    {Algorithm::kAgRecursiveDoubling, 1, 2, 4096, 0.015, 0x1.2f4a9b02e523cp-21},
    {Algorithm::kAgRecursiveDoubling, 1, 2, 65536, 0.0, 0x1.e5d34243b8f1cp-19},
    {Algorithm::kAgRecursiveDoubling, 1, 2, 65536, 0.015, 0x1.ea8742c60c158p-19},
    {Algorithm::kAgRdComm, 1, 2, 1, 0.0, 0x1.7c8b5749faa2p-22},
    {Algorithm::kAgRdComm, 1, 2, 1, 0.015, 0x1.8175e8d4f3a18p-22},
    {Algorithm::kAgRdComm, 1, 2, 4096, 0.0, 0x1.2bcfb5fe48a7cp-21},
    {Algorithm::kAgRdComm, 1, 2, 4096, 0.015, 0x1.2f4a9b02e523cp-21},
    {Algorithm::kAgRdComm, 1, 2, 65536, 0.0, 0x1.e5d34243b8f1cp-19},
    {Algorithm::kAgRdComm, 1, 2, 65536, 0.015, 0x1.ea8742c60c158p-19},
    {Algorithm::kAaRecursiveDoubling, 1, 2, 1, 0.0, 0x1.7cad94910afa9p-22},
    {Algorithm::kAaRecursiveDoubling, 1, 2, 1, 0.015, 0x1.8198261c03fa1p-22},
    {Algorithm::kAaRecursiveDoubling, 1, 2, 4096, 0.0, 0x1.1edcf74086968p-20},
    {Algorithm::kAaRecursiveDoubling, 1, 2, 4096, 0.015, 0x1.209a69c2d4d48p-20},
    {Algorithm::kAaRecursiveDoubling, 1, 2, 65536, 0.0, 0x1.8b5f0913b2c1ap-17},
    {Algorithm::kAaRecursiveDoubling, 1, 2, 65536, 0.015, 0x1.8c8c0934478a9p-17},
    {Algorithm::kAgRecursiveDoubling, 1, 3, 1, 0.0, 0x1.002bc7c8ed25fp-20},
    {Algorithm::kAgRecursiveDoubling, 1, 3, 1, 0.015, 0x1.009ca1adc37d8p-20},
    {Algorithm::kAgRecursiveDoubling, 1, 3, 4096, 0.0, 0x1.f6a25f11d6a93p-20},
    {Algorithm::kAgRecursiveDoubling, 1, 3, 4096, 0.015, 0x1.f735843618531p-20},
    {Algorithm::kAgRecursiveDoubling, 1, 3, 65536, 0.0, 0x1.2101ef9589f14p-16},
    {Algorithm::kAgRecursiveDoubling, 1, 3, 65536, 0.015, 0x1.2241d5dc7b788p-16},
    {Algorithm::kAgRecursiveDoubling, 1, 4, 1, 0.0, 0x1.7c8b5749faa2p-21},
    {Algorithm::kAgRecursiveDoubling, 1, 4, 1, 0.015, 0x1.810cadcf64ecfp-21},
    {Algorithm::kAgRecursiveDoubling, 1, 4, 4096, 0.0, 0x1.2bcfb5fe48a7cp-20},
    {Algorithm::kAgRecursiveDoubling, 1, 4, 4096, 0.015, 0x1.2f6d06b04f188p-20},
    {Algorithm::kAgRecursiveDoubling, 1, 4, 65536, 0.0, 0x1.e5d34243b8f1cp-18},
    {Algorithm::kAgRecursiveDoubling, 1, 4, 65536, 0.015, 0x1.ebd6548d8d3d6p-18},
    {Algorithm::kAgRdComm, 1, 4, 1, 0.0, 0x1.7c8b5749faa2p-21},
    {Algorithm::kAgRdComm, 1, 4, 1, 0.015, 0x1.810cadcf64ecfp-21},
    {Algorithm::kAgRdComm, 1, 4, 4096, 0.0, 0x1.2bcfb5fe48a7cp-20},
    {Algorithm::kAgRdComm, 1, 4, 4096, 0.015, 0x1.2f6d06b04f188p-20},
    {Algorithm::kAgRdComm, 1, 4, 65536, 0.0, 0x1.e5d34243b8f1cp-18},
    {Algorithm::kAgRdComm, 1, 4, 65536, 0.015, 0x1.ebd6548d8d3d6p-18},
    {Algorithm::kAaRecursiveDoubling, 1, 4, 1, 0.0, 0x1.7cc21fbbae62ep-21},
    {Algorithm::kAaRecursiveDoubling, 1, 4, 1, 0.015, 0x1.8143869be24c8p-21},
    {Algorithm::kAaRecursiveDoubling, 1, 4, 4096, 0.0, 0x1.7109a1ce27f1bp-19},
    {Algorithm::kAaRecursiveDoubling, 1, 4, 4096, 0.015, 0x1.7319b54da590bp-19},
    {Algorithm::kAaRecursiveDoubling, 1, 4, 65536, 0.0, 0x1.17dc2f177abcp-15},
    {Algorithm::kAaRecursiveDoubling, 1, 4, 65536, 0.015, 0x1.18ddfc872fac2p-15},
    {Algorithm::kAgRecursiveDoubling, 2, 4, 1, 0.0, 0x1.c4c014cabc4d4p-20},
    {Algorithm::kAgRecursiveDoubling, 2, 4, 1, 0.015, 0x1.cb3816a5b7486p-20},
    {Algorithm::kAgRecursiveDoubling, 2, 4, 4096, 0.0, 0x1.4bbebfc269be3p-18},
    {Algorithm::kAgRecursiveDoubling, 2, 4, 4096, 0.015, 0x1.4d413886ed9aep-18},
    {Algorithm::kAgRecursiveDoubling, 2, 4, 65536, 0.0, 0x1.c35d14198d4c2p-15},
    {Algorithm::kAgRecursiveDoubling, 2, 4, 65536, 0.015, 0x1.c735affb477a2p-15},
    {Algorithm::kAgRdComm, 2, 4, 1, 0.0, 0x1.6576678f686e6p-19},
    {Algorithm::kAgRdComm, 2, 4, 1, 0.015, 0x1.696b1caca7936p-19},
    {Algorithm::kAgRdComm, 2, 4, 4096, 0.0, 0x1.15ce4b5b8dfcdp-18},
    {Algorithm::kAgRdComm, 2, 4, 4096, 0.015, 0x1.1875364055a7p-18},
    {Algorithm::kAgRdComm, 2, 4, 65536, 0.0, 0x1.cb8f68f2644bcp-16},
    {Algorithm::kAgRdComm, 2, 4, 65536, 0.015, 0x1.cd28f8aae6058p-16},
    {Algorithm::kAaRecursiveDoubling, 2, 4, 1, 0.0, 0x1.c50b686713768p-20},
    {Algorithm::kAaRecursiveDoubling, 2, 4, 1, 0.015, 0x1.cb83781816054p-20},
    {Algorithm::kAaRecursiveDoubling, 2, 4, 4096, 0.0, 0x1.3c86988f875bap-17},
    {Algorithm::kAaRecursiveDoubling, 2, 4, 4096, 0.015, 0x1.3d58f0e8b685p-17},
    {Algorithm::kAaRecursiveDoubling, 2, 4, 65536, 0.0, 0x1.077e7db4b5cf8p-13},
    {Algorithm::kAaRecursiveDoubling, 2, 4, 65536, 0.015, 0x1.08c0f1a7c22dcp-13},
    {Algorithm::kAgRecursiveDoubling, 2, 5, 1, 0.0, 0x1.e16da69796232p-19},
    {Algorithm::kAgRecursiveDoubling, 2, 5, 1, 0.015, 0x1.de9217fd34913p-19},
    {Algorithm::kAgRecursiveDoubling, 2, 5, 4096, 0.0, 0x1.9b0be0c84b23p-17},
    {Algorithm::kAgRecursiveDoubling, 2, 5, 4096, 0.015, 0x1.987b548d935ecp-17},
    {Algorithm::kAgRecursiveDoubling, 2, 5, 65536, 0.0, 0x1.6b75c86ee62dp-13},
    {Algorithm::kAgRecursiveDoubling, 2, 5, 65536, 0.015, 0x1.6aa9c67a492cfp-13},
    {Algorithm::kAgRdComm, 2, 5, 1, 0.0, 0x1.e89b11ce483f3p-19},
    {Algorithm::kAgRdComm, 2, 5, 1, 0.015, 0x1.ec910d49f7038p-19},
    {Algorithm::kAgRdComm, 2, 5, 4096, 0.0, 0x1.52467da0fc1d5p-18},
    {Algorithm::kAgRdComm, 2, 5, 4096, 0.015, 0x1.54d3806d5a7e9p-18},
    {Algorithm::kAgRdComm, 2, 5, 65536, 0.0, 0x1.da074462d5871p-16},
    {Algorithm::kAgRdComm, 2, 5, 65536, 0.015, 0x1.df2b31789a52cp-16},
    {Algorithm::kAgRecursiveDoubling, 3, 4, 1, 0.0, 0x1.da806fe958296p-19},
    {Algorithm::kAgRecursiveDoubling, 3, 4, 1, 0.015, 0x1.dfd24a307936ep-19},
    {Algorithm::kAgRecursiveDoubling, 3, 4, 4096, 0.0, 0x1.769f8846f2dcdp-16},
    {Algorithm::kAgRecursiveDoubling, 3, 4, 4096, 0.015, 0x1.768b662075ba9p-16},
    {Algorithm::kAgRecursiveDoubling, 3, 4, 65536, 0.0, 0x1.477f27c1ba6bep-12},
    {Algorithm::kAgRecursiveDoubling, 3, 4, 65536, 0.015, 0x1.4693aed05842bp-12},
    {Algorithm::kAgRdComm, 3, 4, 1, 0.0, 0x1.0c198ce3b9ceep-18},
    {Algorithm::kAgRdComm, 3, 4, 1, 0.015, 0x1.0fc544af33a7p-18},
    {Algorithm::kAgRdComm, 3, 4, 4096, 0.0, 0x1.aca8f3c116f49p-18},
    {Algorithm::kAgRdComm, 3, 4, 4096, 0.015, 0x1.b4033b331a8d4p-18},
    {Algorithm::kAgRdComm, 3, 4, 65536, 0.0, 0x1.d4cdead459a2ep-15},
    {Algorithm::kAgRdComm, 3, 4, 65536, 0.015, 0x1.d65ea7bc50fdfp-15},
    {Algorithm::kAgRecursiveDoubling, 2, 8, 1, 0.0, 0x1.123ae0a279a4cp-19},
    {Algorithm::kAgRecursiveDoubling, 2, 8, 1, 0.015, 0x1.158923b4a01f7p-19},
    {Algorithm::kAgRecursiveDoubling, 2, 8, 4096, 0.0, 0x1.de49aab1c0e96p-17},
    {Algorithm::kAgRecursiveDoubling, 2, 8, 4096, 0.015, 0x1.df95889b162cbp-17},
    {Algorithm::kAgRecursiveDoubling, 2, 8, 65536, 0.0, 0x1.9e1be18019b69p-13},
    {Algorithm::kAgRecursiveDoubling, 2, 8, 65536, 0.015, 0x1.a01bb2186eb8bp-13},
    {Algorithm::kAgRdComm, 2, 8, 1, 0.0, 0x1.6574e91f11761p-18},
    {Algorithm::kAgRdComm, 2, 8, 1, 0.015, 0x1.675a759877557p-18},
    {Algorithm::kAgRdComm, 2, 8, 4096, 0.0, 0x1.09dac8a3cc035p-17},
    {Algorithm::kAgRdComm, 2, 8, 4096, 0.015, 0x1.0bc6cde582b6bp-17},
    {Algorithm::kAgRdComm, 2, 8, 65536, 0.0, 0x1.a4ffdff551bd1p-15},
    {Algorithm::kAgRdComm, 2, 8, 65536, 0.015, 0x1.a657ae6315124p-15},
    {Algorithm::kAaRecursiveDoubling, 2, 8, 1, 0.0, 0x1.129abf6974365p-19},
    {Algorithm::kAaRecursiveDoubling, 2, 8, 1, 0.015, 0x1.15e94558bc75p-19},
    {Algorithm::kAaRecursiveDoubling, 2, 8, 4096, 0.0, 0x1.aee2634e039eap-16},
    {Algorithm::kAaRecursiveDoubling, 2, 8, 4096, 0.015, 0x1.b0d981619ac9p-16},
    {Algorithm::kAaRecursiveDoubling, 2, 8, 65536, 0.0, 0x1.8ecb7eb530054p-12},
    {Algorithm::kAaRecursiveDoubling, 2, 8, 65536, 0.015, 0x1.909b32af3e742p-12},
    {Algorithm::kAgRecursiveDoubling, 4, 6, 1, 0.0, 0x1.26c8124c0edeep-17},
    {Algorithm::kAgRecursiveDoubling, 4, 6, 1, 0.015, 0x1.500cb45be90ffp-17},
    {Algorithm::kAgRecursiveDoubling, 4, 6, 4096, 0.0, 0x1.4c0de9eb4193bp-14},
    {Algorithm::kAgRecursiveDoubling, 4, 6, 4096, 0.015, 0x1.4cc3a7fd26c24p-14},
    {Algorithm::kAgRecursiveDoubling, 4, 6, 65536, 0.0, 0x1.40bb64fcb500ep-10},
    {Algorithm::kAgRecursiveDoubling, 4, 6, 65536, 0.015, 0x1.410b7b9cd73fdp-10},
    {Algorithm::kAgRdComm, 4, 6, 1, 0.0, 0x1.0c18cdab8e52cp-17},
    {Algorithm::kAgRdComm, 4, 6, 1, 0.015, 0x1.0d023b8ac146ap-17},
    {Algorithm::kAgRdComm, 4, 6, 4096, 0.0, 0x1.a0b5710954fb7p-17},
    {Algorithm::kAgRdComm, 4, 6, 4096, 0.015, 0x1.8d819fd1683c3p-17},
    {Algorithm::kAgRdComm, 4, 6, 65536, 0.0, 0x1.2878237974065p-13},
    {Algorithm::kAgRdComm, 4, 6, 65536, 0.015, 0x1.4b690160c8bb3p-14},
    {Algorithm::kAgRecursiveDoubling, 2, 12, 1, 0.0, 0x1.38d7270d95a6bp-18},
    {Algorithm::kAgRecursiveDoubling, 2, 12, 1, 0.015, 0x1.3b6da52bd37bap-18},
    {Algorithm::kAgRecursiveDoubling, 2, 12, 4096, 0.0, 0x1.00ba554384ce8p-14},
    {Algorithm::kAgRecursiveDoubling, 2, 12, 4096, 0.015, 0x1.011012df0c59ep-14},
    {Algorithm::kAgRecursiveDoubling, 2, 12, 65536, 0.0, 0x1.e2de0c9397baep-11},
    {Algorithm::kAgRecursiveDoubling, 2, 12, 65536, 0.015, 0x1.db3ad5f7a45dfp-11},
    {Algorithm::kAgRdComm, 2, 12, 1, 0.0, 0x1.0c174f3b375a8p-17},
    {Algorithm::kAgRdComm, 2, 12, 1, 0.015, 0x1.0d82285b844d1p-17},
    {Algorithm::kAgRdComm, 2, 12, 4096, 0.0, 0x1.88ce6b99d1089p-17},
    {Algorithm::kAgRdComm, 2, 12, 4096, 0.015, 0x1.8a73f1fe2b64p-17},
    {Algorithm::kAgRdComm, 2, 12, 65536, 0.0, 0x1.321c05b8b8aa2p-14},
    {Algorithm::kAgRdComm, 2, 12, 65536, 0.015, 0x1.317322b4cdafcp-14},
    {Algorithm::kAgRecursiveDoubling, 4, 8, 1, 0.0, 0x1.4b09214e5d65bp-17},
    {Algorithm::kAgRecursiveDoubling, 4, 8, 1, 0.015, 0x1.d5c465d82ba3ap-18},
    {Algorithm::kAgRecursiveDoubling, 4, 8, 4096, 0.0, 0x1.0bbe071186398p-14},
    {Algorithm::kAgRecursiveDoubling, 4, 8, 4096, 0.015, 0x1.960ac080d4d88p-15},
    {Algorithm::kAgRecursiveDoubling, 4, 8, 65536, 0.0, 0x1.d1a64f079fb89p-11},
    {Algorithm::kAgRecursiveDoubling, 4, 8, 65536, 0.015, 0x1.97941a56202b8p-11},
    {Algorithm::kAgRdComm, 4, 8, 1, 0.0, 0x1.6575a8573cf28p-17},
    {Algorithm::kAgRdComm, 4, 8, 1, 0.015, 0x1.67aa494f1220dp-17},
    {Algorithm::kAgRdComm, 4, 8, 4096, 0.0, 0x1.0fd489ffad006p-16},
    {Algorithm::kAgRdComm, 4, 8, 4096, 0.015, 0x1.05201c227e0d7p-16},
    {Algorithm::kAgRdComm, 4, 8, 65536, 0.0, 0x1.8814393783d1dp-13},
    {Algorithm::kAgRdComm, 4, 8, 65536, 0.015, 0x1.9621e830d462dp-14},
    {Algorithm::kAaRecursiveDoubling, 4, 8, 1, 0.0, 0x1.4b89766c8b917p-17},
    {Algorithm::kAaRecursiveDoubling, 4, 8, 1, 0.015, 0x1.d69c43b31c9afp-18},
    {Algorithm::kAaRecursiveDoubling, 4, 8, 4096, 0.0, 0x1.feb62700ed57fp-14},
    {Algorithm::kAaRecursiveDoubling, 4, 8, 4096, 0.015, 0x1.eec191a163102p-14},
    {Algorithm::kAaRecursiveDoubling, 4, 8, 65536, 0.0, 0x1.dbcb477336fa8p-10},
    {Algorithm::kAaRecursiveDoubling, 4, 8, 65536, 0.015, 0x1.a839ee33f81dap-10},
    {Algorithm::kAgRecursiveDoubling, 8, 8, 1, 0.0, 0x1.8b7464d7d66bap-16},
    {Algorithm::kAgRecursiveDoubling, 8, 8, 1, 0.015, 0x1.4acfacd981da8p-17},
    {Algorithm::kAgRecursiveDoubling, 8, 8, 4096, 0.0, 0x1.a97c684a5f0b9p-13},
    {Algorithm::kAgRecursiveDoubling, 8, 8, 4096, 0.015, 0x1.cd7255722c636p-14},
    {Algorithm::kAgRecursiveDoubling, 8, 8, 65536, 0.0, 0x1.7d21d21c0265cp-9},
    {Algorithm::kAgRecursiveDoubling, 8, 8, 65536, 0.015, 0x1.051affdf7e668p-9},
    {Algorithm::kAgRdComm, 8, 8, 1, 0.0, 0x1.657607f352b1p-16},
    {Algorithm::kAgRdComm, 8, 8, 1, 0.015, 0x1.67c8259523541p-16},
    {Algorithm::kAgRdComm, 8, 8, 4096, 0.0, 0x1.8b51eaa90f51ap-15},
    {Algorithm::kAgRdComm, 8, 8, 4096, 0.015, 0x1.057416647227dp-15},
    {Algorithm::kAgRdComm, 8, 8, 65536, 0.0, 0x1.80d94f8810584p-11},
    {Algorithm::kAgRdComm, 8, 8, 65536, 0.015, 0x1.98ae99798e134p-13},
    {Algorithm::kAaRecursiveDoubling, 8, 8, 1, 0.0, 0x1.8c8e388baed1ap-16},
    {Algorithm::kAaRecursiveDoubling, 8, 8, 1, 0.015, 0x1.4c083f4203b9ep-17},
    {Algorithm::kAaRecursiveDoubling, 8, 8, 4096, 0.0, 0x1.e7b8d9c71d0ep-12},
    {Algorithm::kAaRecursiveDoubling, 8, 8, 4096, 0.015, 0x1.62d48f2a12c4fp-12},
    {Algorithm::kAaRecursiveDoubling, 8, 8, 65536, 0.0, 0x1.d18b8eafeebc2p-8},
    {Algorithm::kAaRecursiveDoubling, 8, 8, 65536, 0.015, 0x1.581d02f4779c5p-8},
    {Algorithm::kAgRecursiveDoubling, 2, 64, 1, 0.0, 0x1.b8a15750d1f46p-19},
    {Algorithm::kAgRecursiveDoubling, 2, 64, 1, 0.015, 0x1.bd48dacf5f728p-19},
    {Algorithm::kAgRecursiveDoubling, 2, 64, 4096, 0.0, 0x1.837d619cead77p-11},
    {Algorithm::kAgRecursiveDoubling, 2, 64, 4096, 0.015, 0x1.839c3bcb79efap-11},
    {Algorithm::kAgRecursiveDoubling, 2, 64, 65536, 0.0, 0x1.8272a48ee67d5p-7},
    {Algorithm::kAgRecursiveDoubling, 2, 64, 65536, 0.015, 0x1.82a4832c92801p-7},
    {Algorithm::kAgRdComm, 2, 64, 1, 0.0, 0x1.65739a7cc55bdp-15},
    {Algorithm::kAgRdComm, 2, 64, 1, 0.015, 0x1.66970fba4affdp-15},
    {Algorithm::kAgRdComm, 2, 64, 4096, 0.0, 0x1.fecb6c860490cp-15},
    {Algorithm::kAgRdComm, 2, 64, 4096, 0.015, 0x1.004156691a512p-14},
    {Algorithm::kAgRdComm, 2, 64, 65536, 0.0, 0x1.92ba10726a5p-12},
    {Algorithm::kAgRdComm, 2, 64, 65536, 0.015, 0x1.93a158983e798p-12},
    {Algorithm::kAaRecursiveDoubling, 2, 64, 1, 0.0, 0x1.bd8d5987f8491p-19},
    {Algorithm::kAaRecursiveDoubling, 2, 64, 1, 0.015, 0x1.c236fac06ee71p-19},
    {Algorithm::kAaRecursiveDoubling, 2, 64, 4096, 0.0, 0x1.d23d850f50247p-11},
    {Algorithm::kAaRecursiveDoubling, 2, 64, 4096, 0.015, 0x1.d274a0bdab245p-11},
    {Algorithm::kAaRecursiveDoubling, 2, 64, 65536, 0.0, 0x1.fec79b3cda56ap-6},
    {Algorithm::kAaRecursiveDoubling, 2, 64, 65536, 0.015, 0x1.feaf01eeef4d8p-6},
    {Algorithm::kAgRecursiveDoubling, 4, 56, 1, 0.0, 0x1.bd7c243a348ddp-16},
    {Algorithm::kAgRecursiveDoubling, 4, 56, 1, 0.015, 0x1.f6a3998ddca87p-16},
    {Algorithm::kAgRecursiveDoubling, 4, 56, 4096, 0.0, 0x1.90cf4e9d48a8ep-8},
    {Algorithm::kAgRecursiveDoubling, 4, 56, 4096, 0.015, 0x1.a11218d189e6ap-8},
    {Algorithm::kAgRecursiveDoubling, 4, 56, 65536, 0.0, 0x1.5c1e6d00f4f06p-3},
    {Algorithm::kAgRecursiveDoubling, 4, 56, 65536, 0.015, 0x1.648e0101243a7p-3},
    {Algorithm::kAgRdComm, 4, 56, 1, 0.0, 0x1.38c5450df37bdp-14},
    {Algorithm::kAgRdComm, 4, 56, 1, 0.015, 0x1.3a163e32f16dcp-14},
    {Algorithm::kAgRdComm, 4, 56, 4096, 0.0, 0x1.c0d00b61fa514p-14},
    {Algorithm::kAgRdComm, 4, 56, 4096, 0.015, 0x1.c0f6fc7b67dabp-14},
    {Algorithm::kAgRdComm, 4, 56, 65536, 0.0, 0x1.532b4a1880db4p-10},
    {Algorithm::kAgRdComm, 4, 56, 65536, 0.015, 0x1.5334552936c32p-10},
};

class RoutingTimes : public ::testing::TestWithParam<Topology> {};

TEST_P(RoutingTimes, MatchRecordedValues) {
  const Topology topo = GetParam();
  const auto& cluster = sim::cluster_by_name("MRI");
  const auto p = static_cast<std::uint64_t>(topo.world_size());
  int checked = 0;
  for (const PinnedTime& pin : kPinned) {
    if (pin.nodes != topo.nodes || pin.ppn != topo.ppn) continue;
    const SimOptions timing_only{.noise_sigma = pin.noise_sigma,
                                 .seed = 2024,
                                 .payload = PayloadMode::kTimingOnly};
    EXPECT_EQ(
        run_collective(cluster, topo, pin.algorithm, pin.bytes, timing_only)
            .seconds,
        pin.seconds)
        << display_name(pin.algorithm) << " bytes=" << pin.bytes
        << " sigma=" << pin.noise_sigma;
    // The verified path moves and checks every byte: run it wherever one
    // copy of the world's buffers stays within 32 MiB.
    if (p * p * pin.bytes <= (std::uint64_t{32} << 20)) {
      const SimOptions verified{.noise_sigma = pin.noise_sigma, .seed = 2024};
      const RunResult r =
          run_collective(cluster, topo, pin.algorithm, pin.bytes, verified);
      EXPECT_TRUE(r.verified);
      EXPECT_EQ(r.seconds, pin.seconds)
          << display_name(pin.algorithm) << " bytes=" << pin.bytes
          << " sigma=" << pin.noise_sigma << " (verified)";
    }
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, RoutingTimes,
    ::testing::Values(Topology{1, 1}, Topology{1, 2}, Topology{1, 3},
                      Topology{1, 4}, Topology{2, 4}, Topology{2, 5},
                      Topology{3, 4}, Topology{2, 8}, Topology{4, 6},
                      Topology{2, 12}, Topology{4, 8}, Topology{8, 8},
                      Topology{2, 64}, Topology{4, 56}),
    [](const ::testing::TestParamInfo<Topology>& tpi) {
      std::string name = "n";
      name += std::to_string(tpi.param.nodes);
      name += "_p";
      name += std::to_string(tpi.param.ppn);
      return name;
    });

}  // namespace
}  // namespace pml::coll
