// Shared disk array reached over Fibre Channel.
//
// Matches the paper's data path: clients bypass the MDS and talk to the
// array directly through a 4 Gb FC network. The array hosts one volume
// per device; each device has its own elevator scheduler. All clients
// share one FC fabric pipe, so heavy large-file traffic queues there —
// which is why Redbud still beats NFS3 on large files (NFS3 pushes data
// through the single server's 1 Gb Ethernet NIC instead).
//
// Issuers reach the array through FC-latency hops: command and payload
// out, then the durable ack or the read data back.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/future.hpp"
#include "sim/pipe.hpp"
#include "sim/simulation.hpp"
#include "storage/disk.hpp"
#include "storage/io_scheduler.hpp"
#include "storage/types.hpp"

namespace redbud::storage {

struct ArrayParams {
  std::uint32_t ndisks = 4;
  DiskParams disk;
  SchedulerParams scheduler;
  // 4 Gb FC with 8b/10b encoding => ~400 MB/s of payload.
  double fc_bytes_per_second = 400.0 * 1024 * 1024;
  redbud::sim::SimTime fc_latency = redbud::sim::SimTime::micros(50);
};

class DiskArray {
 public:
  DiskArray(redbud::sim::Simulation& sim, ArrayParams params);
  DiskArray(const DiskArray&) = delete;
  DiskArray& operator=(const DiskArray&) = delete;

  // Spawn per-device dispatch daemons. Call once before any I/O.
  void start();

  // Data-path write: FC transfer of the payload, then the device write.
  // Resolves once the blocks are durable on the platter and the ack has
  // crossed the fabric.
  [[nodiscard]] redbud::sim::SimFuture<redbud::sim::Done> write(
      PhysAddr addr, std::uint32_t nblocks, std::vector<ContentToken> tokens);

  // Data-path read: device read, then FC transfer back. Resolves with the
  // block tokens captured at read completion.
  [[nodiscard]] redbud::sim::SimFuture<std::vector<ContentToken>> read_tokens(
      PhysAddr addr, std::uint32_t nblocks);

  // Durable content inspection (used by the crash-consistency checker and
  // by tests, between runs).
  [[nodiscard]] std::vector<ContentToken> peek(PhysAddr addr,
                                               std::uint32_t nblocks) const;

  [[nodiscard]] std::uint32_t ndisks() const {
    return static_cast<std::uint32_t>(disks_.size());
  }
  [[nodiscard]] Disk& disk(std::uint32_t device) { return *disks_[device]; }
  [[nodiscard]] const Disk& disk(std::uint32_t device) const {
    return *disks_[device];
  }
  // Fail-slow injection on one spindle (see Disk::set_slow_factor).
  void set_disk_slow_factor(std::uint32_t device, double f) {
    disks_[device]->set_slow_factor(f);
  }
  [[nodiscard]] IoScheduler& scheduler(std::uint32_t device) {
    return *schedulers_[device];
  }
  [[nodiscard]] redbud::sim::BitPipe& fc_pipe() { return *fc_; }

  // Aggregate elevator statistics over all devices.
  [[nodiscard]] std::uint64_t total_submitted() const;
  [[nodiscard]] std::uint64_t total_dispatched() const;
  [[nodiscard]] std::uint64_t total_merged() const;
  [[nodiscard]] double merge_ratio() const;
  [[nodiscard]] double write_merge_ratio() const;
  void reset_stats();

 private:
  // Schedule one FC hop at `at`; a hop never lies in the past.
  void hop(redbud::sim::SimTime at, redbud::sim::SmallFn fn);
  redbud::sim::Process write_arrival_proc(
      PhysAddr addr, std::uint32_t nblocks, std::vector<ContentToken> tokens,
      redbud::sim::SimPromise<redbud::sim::Done> p);
  redbud::sim::Process read_arrival_proc(
      PhysAddr addr, std::uint32_t nblocks,
      redbud::sim::SimPromise<std::vector<ContentToken>> p);

  redbud::sim::Simulation* sim_;
  ArrayParams params_;
  std::vector<std::unique_ptr<Disk>> disks_;
  std::vector<std::unique_ptr<IoScheduler>> schedulers_;
  std::unique_ptr<redbud::sim::BitPipe> fc_;
};

}  // namespace redbud::storage
