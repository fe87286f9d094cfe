// ddp_launch's --log-dir contract, driven through the real launcher with
// /bin/sh workers: a missing directory is created, and a log that still
// cannot be opened stops the launch with a non-zero exit before any rank
// is spawned — the logs are never silently lost.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

namespace {

namespace fs = std::filesystem;

/// An empty scratch directory unique to this test and process.
fs::path FreshDir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() /
                       ("ddp_launch_test_" + name + "_" +
                        std::to_string(getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Launches two /bin/sh ranks that print "launched-<rank>" and touch
/// <marker><rank>; returns the launcher's exit code.
int LaunchShellRanks(const fs::path& log_dir, const fs::path& marker) {
  const std::string cmd =
      std::string(DDPKIT_LAUNCH_BIN) +
      " --nproc=2 --timeout-sec=60 --log-dir=" + log_dir.string() +
      " -- /bin/sh -c 'echo launched-$DDPKIT_RANK; touch " +
      marker.string() + "$DDPKIT_RANK' > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(DdpLaunchLogDirTest, CreatesMissingDirectory) {
  const fs::path root = FreshDir("create");
  const fs::path logs = root / "nested" / "logs";
  ASSERT_FALSE(fs::exists(logs));
  EXPECT_EQ(0, LaunchShellRanks(logs, root / "ran"));
  for (const int rank : {0, 1}) {
    std::ifstream in(logs / ("rank" + std::to_string(rank) + ".log"));
    ASSERT_TRUE(in.good()) << "rank " << rank;
    std::string line;
    std::getline(in, line);
    EXPECT_EQ("launched-" + std::to_string(rank), line);
  }
  fs::remove_all(root);
}

TEST(DdpLaunchLogDirTest, UnopenableRankLogFailsBeforeSpawning) {
  const fs::path root = FreshDir("unopenable");
  const fs::path logs = root / "logs";
  // A directory where rank 1's log file has to go: the directory exists,
  // but fopen of that path fails.
  fs::create_directories(logs / "rank1.log");
  EXPECT_NE(0, LaunchShellRanks(logs, root / "ran"));
  EXPECT_FALSE(fs::exists(root / "ran0"));
  EXPECT_FALSE(fs::exists(root / "ran1"));
  fs::remove_all(root);
}

TEST(DdpLaunchLogDirTest, UncreatableDirectoryFailsBeforeSpawning) {
  const fs::path root = FreshDir("uncreatable");
  // A regular file where a parent of --log-dir has to be.
  std::ofstream(root / "file") << "x";
  EXPECT_NE(0, LaunchShellRanks(root / "file" / "logs", root / "ran"));
  EXPECT_FALSE(fs::exists(root / "ran0"));
  EXPECT_FALSE(fs::exists(root / "ran1"));
  fs::remove_all(root);
}

}  // namespace
