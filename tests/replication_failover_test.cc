// Failover kill matrix (CRASH label): fork a PRIMARY child that
// serves the replication stream while running a deterministic
// append workload, with ONE armed crash point — a WAL or replication
// fault site with a randomized hit number, or a SIGKILL from the
// parent at a randomized moment — then, after the primary dies
// mid-write / mid-handshake / mid-snapshot-transfer / mid-frame,
// promote the surviving follower in the parent and prove:
//
//   promoted state == EXACTLY the first R workload commands for some
//   R <= tried                      (prefix property: `debug` ranking
//                                    byte-identical to a reference
//                                    service replaying R appends)
//   promote bumps the epoch >= 2    (the old timeline is fenced off)
//   the promoted node accepts writes (role actually flipped)
//
// Kill modes cover both ends of the wire: the follower is attached
// BEFORE the workload for streaming-path kills, and only AFTER a
// checkpoint truncates the log for snapshot-bootstrap kills, so the
// matrix includes deaths during the snapshot transfer itself. The
// suite self-provides main(): the forked child execs this binary with
// kPrimaryChildFlag, so it starts single-threaded (a child forked from
// the multi-threaded parent must not start threads) and main() runs
// the workload directly, not gtest.
//
// DBWIPES_FAILOVER_RUNS scales the total run count (default sized so
// a full pass exceeds 100 randomized kill points).

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dbwipes/common/exec_context.h"
#include "dbwipes/common/random.h"
#include "dbwipes/core/service.h"

namespace dbwipes {
namespace {

std::shared_ptr<Database> MakeDb() {
  Rng rng(53);
  auto t = std::make_shared<Table>(Schema{{"g", DataType::kInt64},
                                          {"tag", DataType::kString},
                                          {"v", DataType::kDouble}},
                                   "w");
  for (int g = 0; g < 4; ++g) {
    for (int i = 0; i < 40; ++i) {
      const bool bad = g >= 2 && i < 8;
      DBW_CHECK_OK(t->AppendRow({Value(static_cast<int64_t>(g)),
                                 Value(bad ? "bad" : "fine"),
                                 Value(bad ? rng.Normal(100, 2)
                                           : rng.Normal(10, 2))}));
    }
  }
  auto db = std::make_shared<Database>();
  db->RegisterTable(t);
  return db;
}

bool IsOk(const std::string& response) {
  return response.compare(0, 11, "{\"ok\": true") == 0;
}

long long JsonInt(const std::string& response, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t at = response.find(needle);
  if (at == std::string::npos) return -1;
  return std::strtoll(response.c_str() + at + needle.size(), nullptr, 10);
}

/// The deterministic tail of a debug response (ranked predicates).
std::string RankedPredicates(const std::string& debug_response) {
  const size_t at = debug_response.find("\"predicates\":[");
  EXPECT_NE(at, std::string::npos) << debug_response.substr(0, 200);
  return at == std::string::npos ? debug_response : debug_response.substr(at);
}

/// Crash-test working directory: /dev/shm avoids paying real-disk
/// fsync latency across ~100 forks; fall back to the test tmpdir.
std::string CrashDirRoot() {
  if (::access("/dev/shm", W_OK) == 0) return "/dev/shm";
  return ::testing::TempDir();
}

// The workload: kSetupCommands logged commands establish the query
// session and shard the table (LSNs 1..4), then appends i carry
// deterministic contents (LSN 5 + i), so the parent can rebuild the
// exact state after any prefix of the stream.
constexpr size_t kSetupCommands = 4;
constexpr size_t kPreAppends = 6;   // before the log-truncating checkpoint
constexpr size_t kTotalAppends = 20;

std::string AppendCommandFor(size_t i) {
  return "append w 9 extra " + std::to_string(50.0 + static_cast<double>(i));
}

bool RunSetup(Service& service) {
  return IsOk(service.Execute(
             "sql SELECT g, avg(v) AS a FROM w GROUP BY g")) &&
         IsOk(service.Execute("select_range a 20 1e9")) &&
         IsOk(service.Execute("metric too_high 12")) &&
         IsOk(service.Execute("shards w 4"));
}

/// argv[1] of the re-executed primary child; its arguments follow as
/// <dir> <ack_fd> <site> <skip> <short_write_limit>.
constexpr char kPrimaryChildFlag[] = "--failover-primary-child";

/// The forked primary's workload. Never returns — exits 0 (workload
/// complete and the follower drained), kFaultCrashExit (the armed
/// crash fired), or 3 (internal invariant broke; parent fails the run).
[[noreturn]] void RunPrimaryChild(const std::string& dir, int ack_fd,
                                  const std::string& site, size_t skip,
                                  size_t short_write_limit) {
  FaultInjector faults;
  if (!site.empty()) {
    FaultInjector::Fault fault;
    fault.crash = true;
    fault.skip = skip;
    fault.count = 1;
    fault.short_write_limit = short_write_limit;
    faults.Arm(site, fault);
  }
  ServiceOptions options;
  options.wal.dir = dir;
  options.wal.faults = &faults;
  options.replication.listen_port = 0;  // ephemeral
  options.replication.faults = &faults;
  Service service(MakeDb(), options);

  const std::string status = service.Execute("replication status");
  if (status.find("\"listening\": true") == std::string::npos) ::_exit(3);
  ::dprintf(ack_fd, "port %lld\n", JsonInt(status, "port"));

  if (!RunSetup(service)) ::_exit(3);

  for (size_t i = 0; i < kTotalAppends; ++i) {
    if (i == kPreAppends) {
      // Truncate the log: a follower attaching after this line MUST
      // bootstrap from a snapshot transfer (the mid-snapshot kills).
      if (!IsOk(service.Execute("wal checkpoint"))) ::_exit(3);
      ::dprintf(ack_fd, "cp\n");
    }
    ::dprintf(ack_fd, "t %zu\n", i);
    if (!IsOk(service.Execute(AppendCommandFor(i)))) ::_exit(3);
    ::dprintf(ack_fd, "a %zu\n", i);
    if (i >= kPreAppends) {
      // Pace the tail so streaming genuinely overlaps the workload
      // (and the parent's SIGKILL lands at varied stream positions).
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  // Completed runs drain the stream so the follower reaches FULL
  // parity (bounded wait: a follower that never attached or already
  // died must not wedge the run).
  const long long durable =
      JsonInt(service.Execute("wal status"), "durable_lsn");
  for (int poll = 0; poll < 300; ++poll) {
    const std::string rs = service.Execute("replication status");
    if (JsonInt(rs, "followers") >= 1 && JsonInt(rs, "min_acked_lsn") >= durable) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::_exit(0);
}

ServiceOptions FollowerOptions(int primary_port) {
  ServiceOptions options;  // memory-only follower: promote-ready state
  options.replication.follow = "127.0.0.1:" + std::to_string(primary_port);
  options.replication.heartbeat_timeout_ms = 400.0;
  options.replication.reconnect.initial_backoff_ms = 5.0;
  options.replication.reconnect.max_backoff_ms = 50.0;
  return options;
}

struct KillMode {
  const char* site;        // empty: parent SIGKILLs instead
  bool attach_at_cp;       // attach the follower only after the
                           // checkpoint (forces snapshot bootstrap)
  uint64_t skip_range;     // randomized fault skip in [0, range)
  uint64_t short_write_range;  // randomized torn-write byte cap
};

// Every replication-path crash site plus the WAL's own write/fsync
// (the primary dying mid-append) and a raw SIGKILL (the primary dying
// between ANY two instructions).
const KillMode kKillModes[] = {
    {"wal/write", false, 30, 48},
    {"wal/fsync", false, 30, 0},
    {"repl/send_frame", false, 26, 0},
    {"repl/snapshot_chunk", true, 2, 0},
    {"repl/handshake", true, 2, 0},
    {"", false, 0, 0},  // SIGKILL at a randomized stream position
};

struct FailoverOutcome {
  bool crashed = false;
  bool completed = false;
  size_t tried = 0;   // appends attempted by the child (count)
  size_t acked = 0;   // appends acknowledged by the child (count)
  bool follower_attached = false;
  bool parity_checked = false;
  long long frames_applied = 0;
  long long snapshot_installs = 0;
};

FailoverOutcome RunFailoverOnce(const KillMode& mode, Rng& rng,
                                const std::string& dir) {
  FailoverOutcome outcome;
  std::system(("rm -rf '" + dir + "'").c_str());
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    ADD_FAILURE() << "pipe: " << std::strerror(errno);
    return outcome;
  }
  const size_t skip =
      mode.skip_range > 0 ? rng.UniformInt(mode.skip_range) : 0;
  const size_t short_write =
      mode.short_write_range > 0 ? rng.UniformInt(mode.short_write_range) : 0;
  // The child's command line, built before fork: between fork and exec
  // the child only calls async-signal-safe functions.
  std::vector<std::string> args = {"/proc/self/exe",
                                   kPrimaryChildFlag,
                                   dir,
                                   std::to_string(pipe_fds[1]),
                                   mode.site,
                                   std::to_string(skip),
                                   std::to_string(short_write)};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ADD_FAILURE() << "fork: " << std::strerror(errno);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return outcome;
  }
  if (pid == 0) {
    ::close(pipe_fds[0]);
    ::execv(argv[0], argv.data());
    ::_exit(3);
  }
  ::close(pipe_fds[1]);

  // Stream the ack pipe: the follower attaches mid-run (at `port` for
  // streaming-path kills, at `cp` for snapshot-path kills), so lines
  // act as they arrive rather than being parsed post-mortem.
  std::unique_ptr<Service> follower;
  std::thread killer;
  const bool sigkill_mode = mode.site[0] == '\0';
  auto attach_follower = [&](int port) {
    follower = std::make_unique<Service>(MakeDb(), FollowerOptions(port));
    outcome.follower_attached = true;
    if (sigkill_mode) {
      const long delay_ms = static_cast<long>(2 + rng.UniformInt(uint64_t{60}));
      killer = std::thread([pid, delay_ms] {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
        ::kill(pid, SIGKILL);
      });
    }
  };

  std::string buffered;
  char chunk[256];
  int primary_port = -1;
  while (true) {
    const ssize_t n = ::read(pipe_fds[0], chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF: the child exited (or was killed)
    buffered.append(chunk, static_cast<size_t>(n));
    size_t line_start = 0;
    size_t eol;
    while ((eol = buffered.find('\n', line_start)) != std::string::npos) {
      const std::string line = buffered.substr(line_start, eol - line_start);
      line_start = eol + 1;
      size_t value = 0;
      if (std::sscanf(line.c_str(), "port %d", &primary_port) == 1) {
        if (!mode.attach_at_cp) attach_follower(primary_port);
        continue;
      }
      if (line == "cp") {
        if (mode.attach_at_cp && follower == nullptr && primary_port > 0) {
          attach_follower(primary_port);
        }
        continue;
      }
      if (std::sscanf(line.c_str(), "t %zu", &value) == 1) {
        outcome.tried = value + 1;
      } else if (std::sscanf(line.c_str(), "a %zu", &value) == 1) {
        outcome.acked = value + 1;
      }
    }
    buffered.erase(0, line_start);
  }
  ::close(pipe_fds[0]);

  int wstatus = 0;
  if (::waitpid(pid, &wstatus, 0) != pid) {
    ADD_FAILURE() << "waitpid: " << std::strerror(errno);
  } else if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0) {
    outcome.completed = true;
  } else if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == kFaultCrashExit) {
    outcome.crashed = true;
  } else if (WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL) {
    outcome.crashed = true;
  } else {
    ADD_FAILURE() << "child (site '" << mode.site << "', skip " << skip
                  << ") died unexpectedly: exited="
                  << (WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1)
                  << " signal="
                  << (WIFSIGNALED(wstatus) ? WTERMSIG(wstatus) : 0);
  }
  if (killer.joinable()) killer.join();
  if (follower == nullptr) return outcome;

  // The primary is dead. Capture the follower's stream stats, promote
  // it, and hold the promoted state to the acknowledged-prefix oracle.
  const std::string pre_status = follower->Execute("replication status");
  outcome.frames_applied = JsonInt(pre_status, "frames_applied");
  outcome.snapshot_installs = JsonInt(pre_status, "snapshot_installs");

  const std::string promoted = follower->Execute("promote");
  EXPECT_TRUE(IsOk(promoted)) << promoted;
  EXPECT_GE(JsonInt(promoted, "epoch"), 2) << promoted;
  const long long last_applied = JsonInt(promoted, "last_applied_lsn");
  // The follower can never hold history the primary was not even
  // ASKED to write (setup + every attempted append).
  EXPECT_LE(last_applied,
            static_cast<long long>(kSetupCommands + outcome.tried))
      << "site '" << mode.site << "': follower invented history";

  if (last_applied >= static_cast<long long>(kSetupCommands)) {
    // Prefix oracle: the promoted state must be byte-identical to a
    // fresh service that replayed EXACTLY the first R appends.
    const size_t replayed =
        static_cast<size_t>(last_applied) - kSetupCommands;
    Service reference(MakeDb());
    EXPECT_TRUE(RunSetup(reference));
    for (size_t i = 0; i < replayed; ++i) {
      EXPECT_TRUE(IsOk(reference.Execute(AppendCommandFor(i))));
    }
    EXPECT_EQ(RankedPredicates(follower->Execute("debug")),
              RankedPredicates(reference.Execute("debug")))
        << "site '" << mode.site << "' skip " << skip << ": promoted state "
        << "is not the acknowledged prefix of " << replayed << " appends";
    outcome.parity_checked = true;
    // Promotion flipped the role: the same mutation a follower refuses
    // must now succeed.
    EXPECT_TRUE(IsOk(follower->Execute("append w 9 extra 999.0")));
  } else {
    // Killed before the setup frames landed: still a primary now, so a
    // logged session command must be accepted (not `not_primary`).
    EXPECT_TRUE(IsOk(follower->Execute(
        "sql SELECT g, avg(v) AS a FROM w GROUP BY g")));
  }
  return outcome;
}

size_t TotalRuns() {
  if (const char* env = std::getenv("DBWIPES_FAILOVER_RUNS")) {
    const long runs = std::strtol(env, nullptr, 10);
    if (runs > 0) return static_cast<size_t>(runs);
  }
  return 108;  // 6 kill modes x 18 = 108 randomized kill points
}

TEST(ReplicationFailoverTest, KillMatrixPromotedFollowerIsAnAckedPrefix) {
  const size_t modes = sizeof(kKillModes) / sizeof(kKillModes[0]);
  const size_t runs_per_mode = (TotalRuns() + modes - 1) / modes;
  const std::string dir = CrashDirRoot() + "/dbw_failover_" +
                          std::to_string(::getpid());

  size_t crashes = 0;
  size_t completions = 0;
  size_t parity_checks = 0;
  long long total_frames = 0;
  long long total_snapshot_installs = 0;
  for (const KillMode& mode : kKillModes) {
    Rng rng(1811 +
            std::hash<std::string>{}(std::string("kill") + mode.site) % 10000);
    for (size_t run = 0; run < runs_per_mode; ++run) {
      const FailoverOutcome outcome = RunFailoverOnce(mode, rng, dir);
      if (outcome.crashed) ++crashes;
      if (outcome.completed) ++completions;
      if (outcome.parity_checked) ++parity_checks;
      if (outcome.frames_applied > 0) total_frames += outcome.frames_applied;
      if (outcome.snapshot_installs > 0) {
        total_snapshot_installs += outcome.snapshot_installs;
      }
      if (::testing::Test::HasFatalFailure()) break;
    }
  }
  std::system(("rm -rf '" + dir + "'").c_str());

  // The matrix must actually kill primaries, and unfired runs must
  // complete at full parity — both outcomes exercised — and the
  // snapshot-bootstrap path must have both installed and been killed.
  EXPECT_GT(crashes, 0u);
  EXPECT_GT(completions, 0u);
  EXPECT_GT(total_frames, 0);
  EXPECT_GT(total_snapshot_installs, 0);
  EXPECT_GT(parity_checks, TotalRuns() / 4);
  std::fprintf(stderr,
               "[failover matrix] %zu modes x %zu runs: %zu crashes, "
               "%zu completions, %zu parity checks, %lld frames, "
               "%lld snapshot installs\n",
               modes, runs_per_mode, crashes, completions, parity_checks,
               total_frames, total_snapshot_installs);
}

}  // namespace
}  // namespace dbwipes

int main(int argc, char** argv) {
  if (argc == 7 && std::strcmp(argv[1], dbwipes::kPrimaryChildFlag) == 0) {
    dbwipes::RunPrimaryChild(argv[2], std::atoi(argv[3]), argv[4],
                             std::strtoull(argv[5], nullptr, 10),
                             std::strtoull(argv[6], nullptr, 10));
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
