/// \file machine.hpp
/// \brief Machine performance description for the network simulator.
///
/// The evaluation platform of the paper (LLNL Lassen: IBM Power9 nodes,
/// 4 V100 GPUs per node, EDR InfiniBand, Spectrum MPI with GPU-aware
/// transfers) is not available here, so scaling experiments replay *real*
/// message schedules through this model (README "Benchmarks").
/// Parameters are order-of-magnitude hardware values, documented inline;
/// EXPERIMENTS.md discusses sensitivity. We claim curve *shapes*, never
/// absolute seconds.
#pragma once

#include <cstddef>

namespace beatnik::netsim {

struct MachineModel {
    /// Ranks (GPUs) per node — Lassen runs 1 rank per GPU, 4 GPUs/node.
    int ranks_per_node = 4;

    /// Per-message launch overhead on the CPU (LogGP "o"): Spectrum MPI
    /// GPU-aware path, a few microseconds.
    double per_message_overhead = 2.0e-6;

    /// Intra-node transfers (shared memory / NVLink through host):
    /// cheaper latency, high bandwidth.
    double intra_latency = 2.0e-6;      ///< seconds
    double intra_bandwidth = 30.0e9;    ///< bytes/second

    /// Inter-node transfers over EDR InfiniBand (~100 Gb/s per port) with
    /// GPU-aware staging overhead.
    double inter_latency = 5.0e-6;      ///< seconds
    double inter_bandwidth = 10.0e9;    ///< bytes/second

    /// Node injection limit: all ranks of a node share the NIC, so
    /// concurrent inter-node messages serialize at this rate.
    double nic_injection_bandwidth = 12.0e9; ///< bytes/second

    /// Per-message processing cost at the NIC/HCA (message-rate limit,
    /// ~500K msg/s for EDR-era adapters with GPU-aware staging). This is
    /// one term that makes aggregating collectives win at scale: a dense
    /// p2p all-to-all pushes P-1 messages per rank through the shared
    /// NIC, while the node-aware builtin sends nodes-1 aggregated ones.
    double nic_per_message_overhead = 2.0e-6; ///< seconds

    /// Incast factor for *unscheduled* point-to-point storms (heFFTe's
    /// custom path): when S source nodes converge on one destination
    /// node without round scheduling, its effective ingress bandwidth
    /// degrades by (1 + incast_factor * log2(1 + S)). The MPI builtin
    /// alltoall's phased pairwise schedule avoids this. Calibrated so the
    /// paper's Fig. 9 AllToAll crossover lands above 64 ranks.
    double incast_factor = 0.12;

    /// Effective bandwidth of the extra staging copies the GPU-aware
    /// *collective* path performs (Spectrum MPI stages collective
    /// payloads through host buffers; p2p uses GPUDirect and skips this).
    /// This is what makes the custom p2p path win on small rank counts.
    /// Calibrated jointly with incast_factor so the Fig. 9 crossover
    /// falls between 64 and 256 ranks as observed on Lassen.
    double collective_staging_bandwidth = 50.0e9; ///< bytes/second per node

    /// Effective compute rate of one GPU on the FFT/stencil kernels
    /// (well below peak — these kernels are memory-bound on V100).
    double flops_rate = 0.8e12;         ///< flop/second

    /// Far-field force kernel throughput (pair interactions per second
    /// per GPU; ~30 flops/pair at memory-bound intensity).
    double pair_rate = 2.0e10;          ///< pairs/second

    /// Streaming memory bandwidth used for pack/unpack of message and
    /// migration buffers.
    double memory_bandwidth = 500.0e9;  ///< bytes/second

    [[nodiscard]] int node_of(int rank) const { return rank / ranks_per_node; }
    [[nodiscard]] bool same_node(int a, int b) const { return node_of(a) == node_of(b); }

    /// Point-to-point wire time of one message (excluding queueing).
    [[nodiscard]] double wire_time(int src, int dst, std::size_t bytes) const {
        if (same_node(src, dst)) {
            return intra_latency + static_cast<double>(bytes) / intra_bandwidth;
        }
        return inter_latency + static_cast<double>(bytes) / inter_bandwidth;
    }

    /// The Lassen-like reference machine used by all paper-figure benches.
    static MachineModel lassen() { return MachineModel{}; }
};

} // namespace beatnik::netsim
