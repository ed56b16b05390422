/**
 * Tests for distributed sweep execution (DESIGN.md §15): the lease
 * claim/steal protocol and its one staleness rule (file mtime),
 * heartbeat liveness, torn shard tolerance, duplicate-entry
 * resolution, deterministic merge (two concurrent workers must render
 * results bit-identical to a serial run, and a worker started on a
 * finished directory executes nothing), journal hardening against
 * torn tails and concurrent appends, and the warning rate limiter.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/config.hh"
#include "common/rate_limit.hh"
#include "sim/presets.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "sim/sweep_dist.hh"
#include "sim/sweep_io.hh"

using namespace mask;

namespace {

RunOptions
shortOptions()
{
    RunOptions options;
    options.warmup = 2000;
    options.measure = 6000;
    return options;
}

std::vector<SweepJob>
sampleJobs()
{
    const GpuConfig arch = archByName("maxwell");
    std::vector<SweepJob> jobs;
    for (const DesignPoint point :
         {DesignPoint::SharedTlb, DesignPoint::Mask}) {
        jobs.push_back({arch, point, {"HISTO", "LPS"}});
        jobs.push_back({arch, point, {"3DS", "RED"}});
    }
    return jobs;
}

/** Unique-ish temp path under the build dir (no clock/random: gtest
 *  runs each test binary in its own ctest process). */
std::string
tempPath(const std::string &tag)
{
    return "sweep_dist_" + tag + "_" + std::to_string(::getpid()) +
           ".tmp";
}

void
removeTree(const std::string &path)
{
    const std::string cmd = "rm -rf '" + path + "'";
    [[maybe_unused]] const int rc = std::system(cmd.c_str());
}

/** Synthetic distinguishable result for executor-driven tests. */
PairResult
syntheticResult(double ipc)
{
    PairResult result;
    result.sharedIpc = {ipc, ipc / 2};
    result.aloneIpc = {ipc * 2, ipc};
    result.weightedSpeedup = 1.5;
    result.unfairness = 2.0;
    result.ipcThroughput = ipc * 1.5;
    result.stats.cycles = 1234;
    result.stats.ipc = result.sharedIpc;
    return result;
}

DistPolicy
testPolicy(const std::string &dir, const std::string &worker)
{
    DistPolicy policy;
    policy.dir = dir;
    policy.worker = worker;
    policy.heartbeatMs = 50;
    policy.stealAfterMs = 60000; // no accidental steals in tests
    policy.pollMs = 20;
    return policy;
}

std::string
readFile(const std::string &path)
{
    std::string out;
    FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

void
writeFile(const std::string &path, const std::string &content)
{
    FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fwrite(content.data(), 1, content.size(), f),
              content.size());
    std::fclose(f);
}

/** First "key" field in @p shard_path (jobKey is private; shards are
 *  the public surface that carries it). */
std::string
firstShardKey(const std::string &shard_path)
{
    const std::string data = readFile(shard_path);
    const std::size_t nl = data.find('\n');
    std::string key;
    EXPECT_TRUE(jsonField(data.substr(0, nl), "key", key))
        << shard_path;
    return key;
}

/** Set @p path's mtime @p seconds into the past: a lease whose holder
 *  stopped heartbeating that long ago. */
void
ageFile(const std::string &path, long seconds)
{
    struct ::timespec now = {};
    ASSERT_EQ(::clock_gettime(CLOCK_REALTIME, &now), 0);
    struct ::timespec times[2] = {now, now};
    times[1].tv_sec -= seconds;
    ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0) << path;
}

/** Milliseconds since @p path's mtime (negative if in the future). */
std::int64_t
mtimeAgeMs(const std::string &path)
{
    struct ::stat st = {};
    EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
    struct ::timespec now = {};
    ::clock_gettime(CLOCK_REALTIME, &now);
    return (static_cast<std::int64_t>(now.tv_sec) - st.st_mtim.tv_sec) *
               1000 +
           (now.tv_nsec - st.st_mtim.tv_nsec) / 1000000;
}

} // namespace

// ---------------------------------------------------------------------
// Lease naming and policy
// ---------------------------------------------------------------------

TEST(DistLeaseCodec, LeaseNameIsStableHex)
{
    const std::string name = distLeaseName("some|job|key");
    EXPECT_EQ(name.size(), 16 + 6u); // 16 hex chars + ".lease"
    EXPECT_EQ(name.substr(16), ".lease");
    EXPECT_EQ(name, distLeaseName("some|job|key"));
    EXPECT_NE(name, distLeaseName("some|job|key2"));
}

TEST(DistPolicyEnv, ParsesKnobsAndEnforcesFloors)
{
    ::setenv("MASK_SWEEP_DIST_DIR", "/tmp/distenv", 1);
    ::setenv("MASK_SWEEP_DIST_WORKER", "worker one!", 1);
    ::setenv("MASK_SWEEP_DIST_HEARTBEAT_MS", "2000", 1);
    const DistPolicy policy = distPolicyFromEnv();
    ::unsetenv("MASK_SWEEP_DIST_DIR");
    ::unsetenv("MASK_SWEEP_DIST_WORKER");
    ::unsetenv("MASK_SWEEP_DIST_HEARTBEAT_MS");

    EXPECT_TRUE(policy.enabled());
    EXPECT_EQ(policy.dir, "/tmp/distenv");
    EXPECT_EQ(policy.worker, "worker_one_"); // sanitized
    EXPECT_EQ(policy.heartbeatMs, 2000u);
    // The staleness window is derived: ten heartbeats.
    EXPECT_EQ(policy.stealAfterMs, 20000u);

    EXPECT_FALSE(distPolicyFromEnv().enabled());
}

TEST(SweepStatusNames, RoundTripIncludingAbandoned)
{
    for (const SweepStatus status : {SweepStatus::Ok, SweepStatus::Failed}) {
        EXPECT_EQ(sweepStatusFromName(sweepStatusName(status)),
                  status);
    }
    EXPECT_EQ(sweepStatusFromName("SomethingNew"),
              SweepStatus::Failed);
    // Retired statuses of older journals and shards load as failures.
    EXPECT_EQ(sweepStatusFromName("TimedOut"), SweepStatus::Failed);
    EXPECT_EQ(sweepStatusFromName("Crashed"), SweepStatus::Failed);
    EXPECT_EQ(sweepStatusFromName("Abandoned"), SweepStatus::Failed);
}

// ---------------------------------------------------------------------
// Claim / steal protocol
// ---------------------------------------------------------------------

TEST(DistCoordinator, ClaimConflictsResolveByLease)
{
    const std::string dir = tempPath("claim");
    removeTree(dir);
    DistCoordinator w1(testPolicy(dir, "w1"));
    DistCoordinator w2(testPolicy(dir, "w2"));

    EXPECT_TRUE(w1.tryClaim("jobA"));
    // A fresh lease held by w1 is busy for w2 and for a re-claim.
    EXPECT_FALSE(w2.tryClaim("jobA"));
    EXPECT_FALSE(w1.tryClaim("jobA"));
    // Different job: no conflict.
    EXPECT_TRUE(w2.tryClaim("jobB"));

    w1.release("jobA");
    EXPECT_TRUE(w2.tryClaim("jobA"));
    EXPECT_EQ(w2.stats().leasesClaimed, 2u);
    EXPECT_EQ(w2.stats().leasesStolen, 0u);
    removeTree(dir);
}

TEST(DistCoordinator, StealsProvablyStaleLease)
{
    const std::string dir = tempPath("steal");
    removeTree(dir);
    DistCoordinator w2(testPolicy(dir, "w2"));

    // A lease whose holder stopped heartbeating long ago: its mtime
    // is older than the steal-after window (60 s in testPolicy).
    const std::string lease = dir + "/leases/" + distLeaseName("jobX");
    writeFile(lease, "deadbeef 1 gone\n");
    ageFile(lease, 120);

    EXPECT_TRUE(w2.tryClaim("jobX"));
    EXPECT_EQ(w2.stats().leasesStolen, 1u);
    EXPECT_EQ(w2.stats().staleSeen, 1u);
    EXPECT_EQ(w2.stats().leasesClaimed, 0u);

    // The stolen lease is fresh now: a peer sees it busy.
    DistCoordinator w3(testPolicy(dir, "w3"));
    EXPECT_FALSE(w3.tryClaim("jobX"));
    EXPECT_EQ(w3.stats().staleSeen, 0u);
    removeTree(dir);
}

TEST(DistCoordinator, HeartbeatKeepsLeaseFresh)
{
    const std::string dir = tempPath("heartbeat");
    removeTree(dir);
    DistPolicy policy = testPolicy(dir, "w1");
    policy.heartbeatMs = 30;
    policy.stealAfterMs = 120;
    DistCoordinator w1(policy);
    ASSERT_TRUE(w1.tryClaim("jobH"));

    // Sleep several staleness windows: without heartbeats the lease
    // would be stealable; with them a peer must still see it busy.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    DistPolicy peer = policy;
    peer.worker = "w2";
    DistCoordinator w2(peer);
    EXPECT_FALSE(w2.tryClaim("jobH"));
    EXPECT_EQ(w2.stats().staleSeen, 0u);

    // The heartbeat is the file's mtime, and it is recent.
    const std::string lease = dir + "/leases/" + distLeaseName("jobH");
    EXPECT_LE(mtimeAgeMs(lease),
              static_cast<std::int64_t>(policy.stealAfterMs));
    // The holder line names the holder; no code parses it.
    EXPECT_EQ(readFile(lease).rfind("w1 " + std::to_string(::getpid()) +
                                        " ",
                                    0),
              0u);
    removeTree(dir);
}

// ---------------------------------------------------------------------
// Distributed SweepRunner end to end
// ---------------------------------------------------------------------

TEST(SweepDist, TwoConcurrentWorkersMatchSerialBitExact)
{
    const std::string dir = tempPath("tworunners");
    removeTree(dir);
    const std::vector<SweepJob> jobs = sampleJobs();

    SweepRunner serial(shortOptions(), 1);
    for (const SweepJob &job : jobs)
        serial.submit(job);
    serial.run();

    auto runWorker = [&](const char *name, SweepRunner &runner) {
        runner.setDistPolicy(testPolicy(dir, name));
        for (const SweepJob &job : jobs)
            runner.submit(job);
        runner.run();
    };
    SweepRunner a(shortOptions(), 1);
    SweepRunner b(shortOptions(), 1);
    std::thread tb([&] { runWorker("wb", b); });
    runWorker("wa", a);
    tb.join();

    std::uint64_t executed = 0;
    for (SweepRunner *runner : {&a, &b}) {
        ASSERT_EQ(runner->completedJobs(), jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            ASSERT_EQ(runner->outcome(i).status, SweepStatus::Ok)
                << runner->outcome(i).error;
            // Bit-exact equality with the serial baseline, via the
            // exact codec.
            EXPECT_EQ(encodePairResult(runner->result(i)),
                      encodePairResult(serial.result(i)))
                << "job " << i;
        }
        executed += runner->distStats().executed;
        // Every pass of the claim loop reloads the finished jobs;
        // each still counts as one journal hit.
        EXPECT_EQ(runner->journalHits(),
                  runner->distStats().loadedRemote);
    }
    // Every job ran somewhere; claim races may add duplicates but
    // never lose work.
    EXPECT_GE(executed, jobs.size());
    EXPECT_GT(a.distStats().leasesClaimed + b.distStats().leasesClaimed,
              0u);
    removeTree(dir);
}

TEST(SweepDist, SecondWorkerLoadsFromDeadWorkersShardToleratingTornTail)
{
    const std::string dir = tempPath("harvest");
    removeTree(dir);
    const std::vector<SweepJob> jobs = sampleJobs();

    // Worker 1 completes the sweep, then "dies": its shard (with an
    // appended torn final record, as a SIGKILL mid-append would
    // leave) is all that survives.
    {
        SweepRunner w1(shortOptions(), 1);
        w1.setDistPolicy(testPolicy(dir, "w1"));
        w1.setExecutorForTest([](const SweepJob &) {
            return syntheticResult(1.25);
        });
        for (const SweepJob &job : jobs)
            w1.submit(job);
        w1.run();
        ASSERT_EQ(w1.distStats().executed, jobs.size());
    }
    const std::string shard = dir + "/shards/w1.jsonl";
    writeFile(shard, readFile(shard) + "{\"key\":\"torn-partial");

    SweepRunner w2(shortOptions(), 1);
    w2.setDistPolicy(testPolicy(dir, "w2"));
    w2.setExecutorForTest([](const SweepJob &) -> PairResult {
        throw std::runtime_error("w2 must load, not execute");
    });
    for (const SweepJob &job : jobs)
        w2.submit(job);
    w2.run();

    const DistSweepStats &stats = w2.distStats();
    EXPECT_EQ(stats.executed, 0u);
    EXPECT_EQ(stats.loadedRemote, jobs.size());
    EXPECT_EQ(stats.tornLines, 1u); // the dead worker's torn tail
    EXPECT_EQ(stats.duplicates, 0u);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_EQ(w2.outcome(i).status, SweepStatus::Ok)
            << w2.outcome(i).error;
        EXPECT_TRUE(w2.outcome(i).fromJournal);
        EXPECT_EQ(encodePairResult(w2.result(i)),
                  encodePairResult(syntheticResult(1.25)));
    }
    // The torn tail stays: a remote reader never truncates a shard it
    // does not own.
    EXPECT_NE(readFile(shard).find("torn-partial"), std::string::npos);
    removeTree(dir);
}

TEST(SweepDist, DuplicateEntriesResolveDeterministically)
{
    const std::string dir = tempPath("dup");
    removeTree(dir);
    const std::vector<SweepJob> jobs = {sampleJobs().front()};

    // Shard "aa" holds the first durable entry for the job.
    {
        SweepRunner first(shortOptions(), 1);
        first.setDistPolicy(testPolicy(dir, "aa"));
        first.setExecutorForTest([](const SweepJob &) {
            return syntheticResult(1.0);
        });
        first.submit(jobs[0]);
        first.run();
    }
    // A double-claiming straggler lands a second Ok entry for the
    // same key in shard "zz" with a different payload.
    const std::string key = firstShardKey(dir + "/shards/aa.jsonl");
    ASSERT_FALSE(key.empty());
    const std::string dup_blob =
        encodePairResult(syntheticResult(9.0));
    writeFile(dir + "/shards/zz.jsonl",
              "{\"key\":\"" + jsonEscape(key) +
                  "\",\"status\":\"Ok\",\"attempts\":\"1\","
                  "\"error\":\"\",\"worker\":\"zz\",\"result\":\"" +
                  jsonEscape(dup_blob) + "\"}\n");

    SweepRunner merge(shortOptions(), 1);
    merge.setDistPolicy(testPolicy(dir, "mm"));
    merge.setExecutorForTest([](const SweepJob &) -> PairResult {
        throw std::runtime_error("the job must be loaded, not run");
    });
    merge.submit(jobs[0]);
    merge.run();

    ASSERT_EQ(merge.outcome(0).status, SweepStatus::Ok)
        << merge.outcome(0).error;
    EXPECT_EQ(merge.distStats().executed, 0u);
    // Sorted-shard-order tie-break: "aa" (the first durable entry)
    // wins over "zz" regardless of scan order.
    EXPECT_EQ(encodePairResult(merge.result(0)),
              encodePairResult(syntheticResult(1.0)));
    EXPECT_EQ(merge.distStats().duplicates, 1u);
    removeTree(dir);
}

TEST(SweepDist, UndecodableShardEntryIsReRun)
{
    const std::string dir = tempPath("undecodable");
    removeTree(dir);
    const std::vector<SweepJob> jobs = {sampleJobs().front()};

    {
        SweepRunner w1(shortOptions(), 1);
        w1.setDistPolicy(testPolicy(dir, "w1"));
        w1.setExecutorForTest([](const SweepJob &) {
            return syntheticResult(1.0);
        });
        w1.submit(jobs[0]);
        w1.run();
    }
    // The only entry now carries an older build's blob prefix.
    const std::string shard = dir + "/shards/w1.jsonl";
    std::string text = readFile(shard);
    const std::size_t at = text.find("\"result\":\"v4 ");
    ASSERT_NE(at, std::string::npos);
    text[at + 11] = '3';
    writeFile(shard, text);

    // As in a serial resume, the undecodable Ok never wins: the job
    // is claimed and simulated again rather than failed.
    SweepRunner w2(shortOptions(), 1);
    w2.setDistPolicy(testPolicy(dir, "w2"));
    w2.setExecutorForTest([](const SweepJob &) {
        return syntheticResult(2.0);
    });
    w2.submit(jobs[0]);
    w2.run();

    ASSERT_EQ(w2.outcome(0).status, SweepStatus::Ok)
        << w2.outcome(0).error;
    EXPECT_FALSE(w2.outcome(0).fromJournal);
    EXPECT_EQ(w2.distStats().executed, 1u);
    EXPECT_EQ(encodePairResult(w2.result(0)),
              encodePairResult(syntheticResult(2.0)));
    removeTree(dir);
}

TEST(SweepDist, SerialResumeAndMergePickTheSameWinner)
{
    const std::string dir = tempPath("winner");
    removeTree(dir);
    ::mkdir(dir.c_str(), 0755);
    const std::string journal = dir + "/journal.jsonl";
    const SweepJob job = sampleJobs().front();

    SweepPolicy policy;
    policy.journalPath = journal;
    {
        SweepRunner first(shortOptions(), 1);
        first.setPolicy(policy);
        first.setExecutorForTest([](const SweepJob &) {
            return syntheticResult(1.0);
        });
        first.submit(job);
        first.run();
    }
    // A second Ok entry for the same key, with a different payload.
    const std::string key = firstShardKey(journal);
    ASSERT_FALSE(key.empty());
    const std::string text =
        readFile(journal) + "{\"key\":\"" + jsonEscape(key) +
        "\",\"status\":\"Ok\",\"attempts\":\"1\",\"error\":\"\","
        "\"result\":\"" + encodePairResult(syntheticResult(9.0)) +
        "\"}\n";
    writeFile(journal, text);

    const auto poisoned = [](const SweepJob &) -> PairResult {
        throw std::runtime_error("the job must be loaded, not run");
    };
    SweepRunner resumed(shortOptions(), 1);
    resumed.setPolicy(policy);
    resumed.setExecutorForTest(poisoned);
    resumed.submit(job);
    resumed.run();
    ASSERT_EQ(resumed.outcome(0).status, SweepStatus::Ok)
        << resumed.outcome(0).error;
    EXPECT_EQ(encodePairResult(resumed.result(0)),
              encodePairResult(syntheticResult(1.0)));

    // The same bytes as a peer's shard, read by a dist worker.
    ::mkdir((dir + "/dist").c_str(), 0755);
    ::mkdir((dir + "/dist/shards").c_str(), 0755);
    writeFile(dir + "/dist/shards/aa.jsonl", text);
    SweepRunner merge(shortOptions(), 1);
    merge.setDistPolicy(testPolicy(dir + "/dist", "mm"));
    merge.setExecutorForTest(poisoned);
    merge.submit(job);
    merge.run();
    ASSERT_EQ(merge.outcome(0).status, SweepStatus::Ok)
        << merge.outcome(0).error;
    EXPECT_EQ(encodePairResult(merge.result(0)),
              encodePairResult(syntheticResult(1.0)));
    EXPECT_EQ(merge.distStats().duplicates, 1u);
    removeTree(dir);
}

TEST(SweepDist, ParentFormatStaleLeaseIsStolenAndRunToOk)
{
    const std::string dir = tempPath("oldlease");
    removeTree(dir);
    const std::vector<SweepJob> jobs = {sampleJobs().front()};

    // Learn the job key from a throwaway run in a scratch dir.
    const std::string scratch = tempPath("oldlease_scratch");
    removeTree(scratch);
    {
        SweepRunner probe(shortOptions(), 1);
        probe.setDistPolicy(testPolicy(scratch, "probe"));
        probe.setExecutorForTest([](const SweepJob &) {
            return syntheticResult(1.0);
        });
        probe.submit(jobs[0]);
        probe.run();
    }
    const std::string key =
        firstShardKey(scratch + "/shards/probe.jsonl");
    removeTree(scratch);
    ASSERT_FALSE(key.empty());

    // A stale lease in the retired record format, left by a job that
    // already changed hands three times. Its content is not read: the
    // old mtime alone makes it stealable, and no steal count caps it.
    ::mkdir(dir.c_str(), 0755);
    ::mkdir((dir + "/leases").c_str(), 0755);
    const std::string lease = dir + "/leases/" + distLeaseName(key);
    std::string image = "MASKLEASE v1 worker=victim3 pid=1 host=gone "
                        "deadline_ms=1000 steals=3";
    image.resize(255, ' '); // the retired fixed-size, padded image
    writeFile(lease, image + "\n");
    ageFile(lease, 120);

    SweepRunner w1(shortOptions(), 1);
    w1.setDistPolicy(testPolicy(dir, "w1"));
    w1.setExecutorForTest([](const SweepJob &) {
        return syntheticResult(3.0);
    });
    w1.submit(jobs[0]);
    w1.run();

    ASSERT_EQ(w1.outcome(0).status, SweepStatus::Ok)
        << w1.outcome(0).error;
    EXPECT_EQ(encodePairResult(w1.result(0)),
              encodePairResult(syntheticResult(3.0)));
    EXPECT_EQ(w1.distStats().executed, 1u);
    EXPECT_EQ(w1.distStats().leasesStolen, 1u);
    // Released after the shard record became durable.
    struct ::stat st = {};
    EXPECT_NE(::stat(lease.c_str(), &st), 0);
    removeTree(dir);
}

// ---------------------------------------------------------------------
// Journal hardening (torn tails, concurrent appends)
// ---------------------------------------------------------------------

TEST(SweepJournalHardening, TornFinalLineIsTruncatedAndCounted)
{
    const std::string path = tempPath("torn");
    const PairResult result = syntheticResult(3.0);
    {
        SweepJournal journal(path);
        journal.record("good-key", "Ok", "", &result);
    }
    const std::string intact = readFile(path);
    writeFile(path, intact + "{\"key\":\"half-writ");

    SweepJournal reopened(path);
    EXPECT_EQ(reopened.tornTailLines(), 1u);
    EXPECT_EQ(reopened.malformedLines(), 0u);
    const JournalEntry *back = reopened.find("good-key");
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(encodePairResult(back->result), encodePairResult(result));
    // Truncated back to the last complete record: a future append
    // starts on a clean boundary.
    EXPECT_EQ(readFile(path), intact);
    ::unlink(path.c_str());
}

TEST(SweepJournalHardening, MalformedCompleteLinesAreCountedNotFatal)
{
    const std::string path = tempPath("malformed");
    const PairResult result = syntheticResult(4.0);
    {
        SweepJournal journal(path);
        journal.record("k1", "Ok", "", &result);
    }
    // Besides plain garbage, an "attempts" field that does not fit
    // `unsigned` or is not a number makes the whole line malformed.
    const std::string blob = encodePairResult(result);
    writeFile(path,
              readFile(path) + "this is not json\n" +
                  "{\"key\":\"k2\",\"status\":\"Ok\","
                  "\"attempts\":\"4294967297\",\"error\":\"\","
                  "\"result\":\"" + blob + "\"}\n" +
                  "{\"key\":\"k3\",\"status\":\"Ok\","
                  "\"attempts\":\"x\",\"error\":\"\","
                  "\"result\":\"" + blob + "\"}\n");

    SweepJournal reopened(path);
    EXPECT_EQ(reopened.malformedLines(), 3u);
    EXPECT_EQ(reopened.tornTailLines(), 0u);
    EXPECT_NE(reopened.find("k1"), nullptr);
    EXPECT_EQ(reopened.find("k2"), nullptr);
    EXPECT_EQ(reopened.find("k3"), nullptr);
    ::unlink(path.c_str());
}

TEST(SweepJournalHardening, RecordsReproAndWorkerFields)
{
    const std::string path = tempPath("fields");
    {
        SweepJournal journal(path, "w7");
        journal.record("kx", "Failed", "invariant tripped", nullptr,
                       "/tmp/repro.json");
    }
    const std::string data = readFile(path);
    std::string repro, worker;
    ASSERT_TRUE(jsonField(data, "repro", repro));
    ASSERT_TRUE(jsonField(data, "worker", worker));
    EXPECT_EQ(repro, "/tmp/repro.json");
    EXPECT_EQ(worker, "w7");
    ::unlink(path.c_str());
}

TEST(SweepJournalHardening, ControlBytesInErrorTextReloadBitExactly)
{
    const std::string path = tempPath("ctrl");
    const std::string error = std::string("tripped\x01 at \x1b[31mred") +
                              "\t\"quoted\" \\ end";
    {
        SweepJournal journal(path);
        journal.record("kc", "Failed", error, nullptr);
        journal.record("kp", "Failed", "plain \"text\"\n", nullptr);
    }
    const std::string data = readFile(path);
    // Every control byte is escaped, so each record is one valid JSON
    // line; ordinary records keep their bytes.
    EXPECT_NE(data.find("tripped\\u0001 at \\u001b[31mred"),
              std::string::npos)
        << data;
    for (const char c : data)
        EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20)
            << "raw control byte " << static_cast<int>(c);
    EXPECT_NE(data.find("{\"key\":\"kp\",\"status\":\"Failed\","
                        "\"attempts\":\"1\",\"error\":"
                        "\"plain \\\"text\\\"\\n\",\"result\":\"\"}\n"),
              std::string::npos)
        << data;

    SweepJournal reopened(path);
    const JournalEntry *entry = reopened.find("kc");
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->error, error);
    ASSERT_NE(reopened.find("kp"), nullptr);
    EXPECT_EQ(reopened.find("kp")->error, "plain \"text\"\n");
    ::unlink(path.c_str());
}

TEST(SweepJournalHardening, ConcurrentThreadAppendsAllSurvive)
{
    const std::string path = tempPath("threads");
    constexpr int kPerThread = 64;
    {
        SweepJournal journal(path);
        const PairResult result = syntheticResult(5.0);
        auto writer = [&](const char *prefix) {
            for (int i = 0; i < kPerThread; ++i) {
                journal.record(prefix + std::to_string(i), "Ok", "",
                               &result);
            }
        };
        std::thread t1(writer, "a");
        std::thread t2(writer, "b");
        t1.join();
        t2.join();
    }
    SweepJournal reopened(path);
    for (const char *prefix : {"a", "b"}) {
        for (int i = 0; i < kPerThread; ++i) {
            const JournalEntry *entry =
                reopened.find(prefix + std::to_string(i));
            ASSERT_NE(entry, nullptr) << prefix << i;
            EXPECT_EQ(entry->status, "Ok");
        }
    }
    EXPECT_EQ(reopened.malformedLines(), 0u);
    EXPECT_EQ(reopened.tornTailLines(), 0u);
    ::unlink(path.c_str());
}

TEST(SweepJournalHardening, ConcurrentProcessAppendsNeverInterleave)
{
    // Two processes appending whole records to the SAME file — the
    // distributed executor never shares a shard, but O_APPEND
    // single-write atomicity is what makes every shard readable while
    // its owner is still writing, so pin it down hard.
    const std::string path = tempPath("procs");
    ::unlink(path.c_str());
    constexpr int kPerProc = 128;
    const auto child = [&](const char *prefix) {
        const pid_t pid = ::fork();
        if (pid != 0)
            return pid;
        {
            SweepJournal journal(path);
            const PairResult result = syntheticResult(6.0);
            // Long error text pushes each record across multiple
            // stdio-buffer sizes: torn interleavings would be loud.
            const std::string filler(700, 'x');
            for (int i = 0; i < kPerProc; ++i) {
                journal.record(prefix + std::to_string(i), "Failed",
                               filler, nullptr);
            }
        }
        std::_Exit(0);
    };
    const pid_t p1 = child("p1_");
    const pid_t p2 = child("p2_");
    int status = 0;
    ASSERT_EQ(::waitpid(p1, &status, 0), p1);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    ASSERT_EQ(::waitpid(p2, &status, 0), p2);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

    SweepJournal reopened(path);
    EXPECT_EQ(reopened.malformedLines(), 0u);
    EXPECT_EQ(reopened.tornTailLines(), 0u);
    const std::string data = readFile(path);
    std::size_t lines = 0;
    for (const char c : data)
        lines += c == '\n';
    EXPECT_EQ(lines, static_cast<std::size_t>(2 * kPerProc));
    ::unlink(path.c_str());
}

// ---------------------------------------------------------------------
// Warning rate limiter
// ---------------------------------------------------------------------

TEST(WarnRateLimiter, FirstThenEveryNth)
{
    WarnRateLimiter warns(16);
    EXPECT_EQ(warns.tick(), 1u);
    for (std::uint64_t i = 2; i < 16; ++i)
        EXPECT_EQ(warns.tick(), 0u) << i;
    EXPECT_EQ(warns.tick(), 16u);
    for (std::uint64_t i = 17; i < 32; ++i)
        EXPECT_EQ(warns.tick(), 0u) << i;
    EXPECT_EQ(warns.tick(), 32u);
    EXPECT_EQ(warns.occurrences(), 32u);
}

TEST(WarnRateLimiter, EveryOneReportsAll)
{
    WarnRateLimiter warns(1);
    EXPECT_EQ(warns.tick(), 1u);
    EXPECT_EQ(warns.tick(), 2u);
    EXPECT_EQ(warns.tick(), 3u);
}

TEST(WarnRateLimiter, ThreadSafeCounting)
{
    WarnRateLimiter warns(1000000); // count, rarely report
    constexpr int kThreads = 4, kTicks = 2500;
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&] {
            for (int i = 0; i < kTicks; ++i)
                warns.tick();
        });
    }
    for (std::thread &t : pool)
        t.join();
    EXPECT_EQ(warns.occurrences(),
              static_cast<std::uint64_t>(kThreads * kTicks));
}
