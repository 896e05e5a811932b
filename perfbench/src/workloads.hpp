// The benchmark's workloads. Each builds its worlds from the public
// harness, drives them only through the application-level pack/unpack
// calls, and verifies every delivered byte against the seeded payload.
#pragma once

#include <cstdint>
#include <string>

#include "episode.hpp"

namespace perfbench {

/// The paper's Fig 6/7 sweeps in both directions (32 KB-16 MB messages x
/// 8-128 KB paquets) plus native 16 KB pings on each network; closed loop,
/// one message in flight (the paper's acked ping, §3.1).
void run_paper_bulk(Episode& episode);

/// The six paper reference transfers only (a subset of paper_bulk), so
/// every workload can report the model's paper error.
void run_paper_reference(Episode& episode);

/// Seeded log-uniform 8 B-4 KB messages, 1000 per path, closed loop, one
/// path at a time: native Myrinet, native SCI, and forwarded in both
/// directions.
void run_small_msgs(Episode& episode);

/// Open-loop Poisson traffic from four Myrinet origins to four SCI sinks
/// through two gateways, reliable + adaptive + flow mode, 1% drop on both
/// networks; the active gateway is dead from the start, so every origin
/// fails over to the standby.
void run_multiflow_faults(Episode& episode);

/// Known defect b reproducer: multiflow_faults' traffic (1600 messages)
/// with the active gateway crashing for good 200 ms in, on messages in
/// flight. With `teardown` the world is destroyed afterwards (known defect
/// c); otherwise it lives until the process exits.
void run_defect_crash_midstream(Episode& episode, bool teardown);

/// Known defect a reproducer: link health on, two gateways, two reliable
/// flows at 10 MB/s, window 4, 250 ms ack timeout, no faults at all.
void run_defect_health(Episode& episode);

}  // namespace perfbench
