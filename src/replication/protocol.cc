#include "dbwipes/replication/replication.h"

#include <cstdio>
#include <cstring>

#include "dbwipes/common/socket_io.h"
#include "dbwipes/storage/durable_io.h"

namespace dbwipes {

namespace {

// type + a + b + c, before the variable payload.
constexpr size_t kReplHeaderSize = 1 + 8 + 8 + 8;

}  // namespace

std::string EncodeReplMessage(const ReplMessage& m) {
  std::string out;
  const uint32_t len =
      static_cast<uint32_t>(kReplHeaderSize + m.payload.size());
  out.reserve(4 + len);
  out.append(reinterpret_cast<const char*>(&len), 4);
  out.push_back(static_cast<char>(m.type));
  out.append(reinterpret_cast<const char*>(&m.a), 8);
  out.append(reinterpret_cast<const char*>(&m.b), 8);
  out.append(reinterpret_cast<const char*>(&m.c), 8);
  out.append(m.payload);
  return out;
}

Status WriteReplMessage(int fd, const ReplMessage& m) {
  return SendAll(fd, EncodeReplMessage(m));
}

Status ReadReplMessage(int fd, ReplMessage* out, size_t max_payload) {
  char lenbuf[4];
  DBW_RETURN_NOT_OK(RecvAll(fd, lenbuf, sizeof(lenbuf)));
  uint32_t len = 0;
  std::memcpy(&len, lenbuf, 4);
  if (len < kReplHeaderSize || len > kReplHeaderSize + max_payload) {
    return Status::IoError("replication message has implausible length " +
                           std::to_string(len) + " (corrupt stream)");
  }
  std::string body(len, '\0');
  DBW_RETURN_NOT_OK(RecvAll(fd, &body[0], body.size()));
  out->type = static_cast<ReplMsgType>(static_cast<uint8_t>(body[0]));
  std::memcpy(&out->a, body.data() + 1, 8);
  std::memcpy(&out->b, body.data() + 9, 8);
  std::memcpy(&out->c, body.data() + 17, 8);
  out->payload.assign(body, kReplHeaderSize, body.size() - kReplHeaderSize);
  return Status::OK();
}

Result<uint64_t> LoadReplicationEpoch(const std::string& dir) {
  const std::string path = dir + "/repl-epoch";
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return static_cast<uint64_t>(1);
  unsigned long long epoch = 0;
  const int matched = std::fscanf(f, "epoch %llu", &epoch);
  std::fclose(f);
  if (matched != 1 || epoch == 0) {
    return Status::IoError("replication epoch file '" + path +
                           "' is malformed; refusing to guess an epoch");
  }
  return static_cast<uint64_t>(epoch);
}

Status StoreReplicationEpoch(const std::string& dir, uint64_t epoch) {
  char text[40];
  const int n = std::snprintf(text, sizeof(text), "epoch %llu\n",
                              static_cast<unsigned long long>(epoch));
  return ReplaceFileDurably(dir + "/repl-epoch",
                            std::string_view(text, static_cast<size_t>(n)));
}

}  // namespace dbwipes
