// Quickstart: the smallest complete RVMA program, on the public rvma.h
// library surface.
//
// Simulates two nodes on one switch. The target opens a context, creates
// a mailbox window, posts a receive buffer with a completion cache line;
// the initiator fires an rvma_put at the mailbox's virtual address — no
// handshake, no remote buffer bookkeeping — and the NIC completes the
// buffer when the byte threshold is reached, writing (buffer head,
// length) to the notification line.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <cstring>
#include <vector>

#include "api/rvma.h"
#include "cluster/cluster.hpp"

int main() {
  // 1. A simulated 2-node cluster (one switch, 100 Gbps links). The
  //    cluster is the only C++ object here; everything RVMA stays on the
  //    C header.
  rvma::net::NetworkConfig net;
  net.topology = rvma::net::TopologyKind::kStar;
  net.nodes_hint = 2;
  net.link.bw = rvma::Bandwidth::gbps(100);
  rvma::cluster::Cluster cluster(net, rvma::nic::NicParams{});

  rvma_ctx initiator = rvma_initialize(&cluster, 0);
  rvma_ctx target = rvma_initialize(&cluster, 1);

  // 2. Target: a window at mailbox vaddr 0x11FF0011, completing after 64
  //    bytes, plus one posted buffer and its notification cache line.
  constexpr uint64_t kMailbox = 0x11FF0011;
  uint64_t key = 0;
  rvma_win window = rvma_init_window(target, kMailbox, &key,
                                     /*epoch_threshold=*/64,
                                     RVMA_EPOCH_BYTES);
  if (window == nullptr) {
    std::fprintf(stderr, "init_window failed\n");
    return 1;
  }

  std::vector<unsigned char> buffer(64, 0);
  alignas(64) void* notification[8] = {};  // word 0: buf head, word 1: len
  if (rvma_post_buffer(window, buffer.data(), 64, &notification[0]) !=
      RVMA_SUCCESS) {
    std::fprintf(stderr, "post_buffer failed\n");
    return 1;
  }

  // 3. Wake-on-completion (Monitor/MWait style).
  rvma_win_wait(
      window,
      [](void*, void* buf, int64_t len) {
        std::printf("completion: buffer=%p length=%lld payload=\"%s\"\n",
                    buf, static_cast<long long>(len),
                    reinterpret_cast<const char*>(buf));
      },
      nullptr);

  // 4. Initiator: put 64 bytes at the virtual address. Note what is NOT
  //    here: no address exchange, no registration, no completion message.
  char message[64] = "hello from node 0 via Remote Virtual Memory Access";
  rvma_put(initiator, message, /*proc=*/1, kMailbox, sizeof message);

  rvma_sim_run(&cluster);

  std::printf("epoch advanced to %lld; completions on mailbox: %llu\n",
              static_cast<long long>(rvma_win_get_epoch(window)),
              static_cast<unsigned long long>(rvma_win_completions(window)));
  const bool data_ok =
      std::memcmp(buffer.data(), message, sizeof message) == 0 &&
      rvma_flush(initiator, RVMA_ALL_PROCS) == RVMA_SUCCESS;
  std::printf("data integrity: %s\n", data_ok ? "OK" : "CORRUPT");
  const bool notified = notification[0] == buffer.data() &&
                        reinterpret_cast<int64_t*>(notification)[1] == 64;
  rvma_finalize(initiator);
  rvma_finalize(target);
  return data_ok && notified ? 0 : 1;
}
