// support::BlobStore: crash-safe content-addressed persistence.
#include "support/blob_store.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "support/fault_injection.h"

namespace symref::support {
namespace {

namespace fs = std::filesystem;

class BlobStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::instance().reset();
    dir_ = fs::path(::testing::TempDir()) /
           ("blob_store_" + std::string(
                                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override {
    FaultInjector::instance().reset();
    fs::remove_all(dir_);
  }

  fs::path dir_;
};

TEST_F(BlobStoreTest, RoundTripsAndCreatesTheDirectory) {
  BlobStore store(dir_.string());
  ASSERT_TRUE(store.ok()) << store.error();
  const std::string payload = "{\"type\":\"refgen\"}\nwith\nnewlines\x01and bytes";
  EXPECT_TRUE(store.put("abc123", payload));
  const auto got = store.get("abc123");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  const BlobStore::Stats stats = store.stats();
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST_F(BlobStoreTest, MissOnAbsentKey) {
  BlobStore store(dir_.string());
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE(store.get("never-written").has_value());
  EXPECT_EQ(store.stats().misses, 1u);
}

TEST_F(BlobStoreTest, SurvivesReopenFromAnotherInstance) {
  {
    BlobStore store(dir_.string());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.put("key-1", "persisted across instances"));
  }
  BlobStore reopened(dir_.string());
  ASSERT_TRUE(reopened.ok());
  const auto got = reopened.get("key-1");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "persisted across instances");
}

TEST_F(BlobStoreTest, OverwriteReplacesThePayload) {
  BlobStore store(dir_.string());
  ASSERT_TRUE(store.put("k", "old"));
  ASSERT_TRUE(store.put("k", "new and longer"));
  const auto got = store.get("k");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "new and longer");
}

TEST_F(BlobStoreTest, CorruptPayloadIsQuarantinedAndRecomputable) {
  BlobStore store(dir_.string());
  ASSERT_TRUE(store.put("victim", "pristine payload"));
  // Flip a payload byte on disk, past the header line.
  {
    std::fstream file(dir_ / "victim", std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file);
    std::string header;
    std::getline(file, header);
    const auto payload_start = file.tellg();
    file.seekp(payload_start);
    file.put('X');
  }
  EXPECT_FALSE(store.get("victim").has_value());
  EXPECT_EQ(store.stats().corrupt_quarantined, 1u);
  // Quarantined for postmortem, original name free for recompute.
  EXPECT_TRUE(fs::exists(dir_ / "victim.corrupt"));
  EXPECT_FALSE(fs::exists(dir_ / "victim"));
  EXPECT_TRUE(store.put("victim", "recomputed"));
  const auto got = store.get("victim");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "recomputed");
}

TEST_F(BlobStoreTest, TruncatedEntryIsQuarantined) {
  BlobStore store(dir_.string());
  ASSERT_TRUE(store.put("short", "a payload that will be cut"));
  fs::resize_file(dir_ / "short", fs::file_size(dir_ / "short") - 5);
  EXPECT_FALSE(store.get("short").has_value());
  EXPECT_EQ(store.stats().corrupt_quarantined, 1u);
  EXPECT_TRUE(fs::exists(dir_ / "short.corrupt"));
}

TEST_F(BlobStoreTest, GarbageHeaderIsQuarantined) {
  BlobStore store(dir_.string());
  {
    std::ofstream file(dir_ / "garbage", std::ios::binary);
    file << "not a refstore entry at all";
  }
  EXPECT_FALSE(store.get("garbage").has_value());
  EXPECT_EQ(store.stats().corrupt_quarantined, 1u);
}

TEST_F(BlobStoreTest, NoStrayTempFilesAfterWrites) {
  BlobStore store(dir_.string());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(store.put(std::string("k").append(std::to_string(i)), std::string(1000, 'x')));
  }
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().filename().string().rfind(".tmp", 0), std::string::npos)
        << "stray temp file: " << entry.path();
  }
}

TEST_F(BlobStoreTest, RejectsBadKeys) {
  BlobStore store(dir_.string());
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE(store.put("", "x"));
  EXPECT_FALSE(store.put(".hidden", "x"));
  EXPECT_FALSE(store.put("a/b", "x"));
  EXPECT_FALSE(store.put("a b", "x"));
  EXPECT_FALSE(store.get("a/b").has_value());
}

TEST_F(BlobStoreTest, UnusableDirectoryDegradesToPassThrough) {
  // A regular file where the directory should be.
  const fs::path blocker = fs::path(::testing::TempDir()) / "blob_store_blocker";
  {
    std::ofstream file(blocker);
    file << "in the way";
  }
  BlobStore store(blocker.string());
  EXPECT_FALSE(store.ok());
  EXPECT_FALSE(store.error().empty());
  EXPECT_FALSE(store.put("k", "x"));
  EXPECT_FALSE(store.get("k").has_value());
  fs::remove(blocker);
}

TEST_F(BlobStoreTest, InjectedStoreIoFaultFailsPutAndMissesGet) {
  BlobStore store(dir_.string());
  ASSERT_TRUE(store.put("k", "payload"));
  ASSERT_TRUE(FaultInjector::instance().configure("store_io:1"));
  EXPECT_FALSE(store.put("k2", "lost"));
  EXPECT_FALSE(store.get("k").has_value());
  FaultInjector::instance().reset();
  // The store is fully usable again once the fault clears.
  const auto got = store.get("k");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "payload");
}

TEST(BlobStoreHash, Fnv1a64MatchesReferenceVectors) {
  // Standard FNV-1a test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
  EXPECT_EQ(hex64(0xcbf29ce484222325ull), "cbf29ce484222325");
  EXPECT_EQ(hex64(0x1ull), "0000000000000001");
}

}  // namespace
}  // namespace symref::support
