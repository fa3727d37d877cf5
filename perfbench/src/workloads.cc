/**
 * @file
 * Workload table. Timings quoted below were measured on a 4-core
 * x86-64 host with this benchmark's Release build.
 */

#include "workloads.hh"

namespace perfbench {

namespace {

const WorkloadSpec kWorkloads[] = {
    // Palermo on the uniform-random LLC-miss trace at 2^22 blocks, the
    // largest tree the program still prefills (kPrefillLimit), run
    // saturated by a frontend-bound SimSession. Prefill dominates
    // (about 9 s of setup against 4 s of run), the run keeps about 90
    // DRAM requests outstanding at about half the bus, and the
    // footprint (about 470 MB) dwarfs the host caches: tree
    // construction, Palermo's PE scheduling and deep FR-FCFS queue
    // scans do most of their work here.
    {"palermo-b22", Driver::Session, palermo::ProtocolKind::Palermo, 22,
     4000, 2000, 0.2},

    // RingORAM, the paper's baseline, through the serial controller on
    // the same trace at 2^20 blocks. A change to Palermo's controller
    // alone should not move it. About 27 DRAM requests outstanding at
    // about a fifth of the bus, most controller cycles in sync stalls:
    // most DRAM ticks find nothing to issue, the case idle-cycle
    // skipping targets. Setup (about 1.7 s) is long enough to time.
    {"ring-b20", Driver::Session, palermo::ProtocolKind::RingOram, 20,
     4000, 2000, 0.2},

    // ObliviousKvService over Palermo at 2^20 blocks, 4 tenants,
    // open-loop Poisson at 1.5 req/kcyc (about 60% of the roughly 2.4
    // req/kcyc this geometry saturates at), Zipf 0.99 keys, 30% PUTs,
    // a 64-slot queue that rejects when full. The only workload that
    // crosses the service layer (queue, tenant directory, pump/reap),
    // with skewed keys, more writes and idle gaps between arrivals.
    // 5000 measured requests give every tenant more than 1000 samples,
    // so each tenant's p99 has at least 10 samples beyond it.
    {"kv-open", Driver::Service, palermo::ProtocolKind::Palermo, 20, 6000,
     1000, 0.3, 4, 1.5, 1ull << 18, 0.99, 64},
};

} // namespace

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &spec : kWorkloads)
        if (name == spec.name)
            return &spec;
    return nullptr;
}

std::string
workloadNames()
{
    std::string names;
    for (const WorkloadSpec &spec : kWorkloads) {
        if (!names.empty())
            names += ',';
        names += spec.name;
    }
    return names;
}

} // namespace perfbench
