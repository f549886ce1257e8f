#include "explore/schedule.hpp"

#include <cstdio>
#include <cstring>

namespace svmsim::explore {

namespace {

constexpr char kMagic[8] = {'S', 'V', 'M', 'S', 'C', 'H', 'E', 'D'};

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back((v >> (8 * i)) & 0xffu);
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back((v >> (8 * i)) & 0xffu);
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

}  // namespace

std::string_view to_string(ChoiceKind k) noexcept {
  switch (k) {
    case ChoiceKind::kWire: return "wire";
    case ChoiceKind::kVictim: return "victim";
    case ChoiceKind::kPollSlip: return "poll-slip";
  }
  return "?";
}

std::string_view to_string(DecodeError e) noexcept {
  switch (e) {
    case DecodeError::kOk: return "ok";
    case DecodeError::kTruncated: return "truncated";
    case DecodeError::kBadMagic: return "bad magic";
    case DecodeError::kBadVersion: return "unsupported version";
    case DecodeError::kBadChecksum: return "checksum mismatch";
    case DecodeError::kBadFingerprint: return "config fingerprint mismatch";
  }
  return "?";
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::vector<std::uint8_t> encode(const Schedule& s, std::uint64_t fingerprint) {
  std::vector<std::uint8_t> out;
  out.reserve(8 + 4 + 8 + 4 + s.size() * 9 + 8);
  // Byte by byte, like put_u64: GCC 12 misreads a ranged insert of the
  // char array into the vector as an overflow (-Wstringop-overflow).
  for (char c : kMagic) out.push_back(static_cast<std::uint8_t>(c));
  put_u32(out, kScheduleVersion);
  put_u64(out, fingerprint);
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  for (const Choice& c : s) {
    out.push_back(static_cast<std::uint8_t>(c.kind));
    put_u64(out, c.value);
  }
  const std::uint64_t sum =
      fnv1a({reinterpret_cast<const char*>(out.data()), out.size()});
  put_u64(out, sum);
  return out;
}

DecodeError decode(const std::uint8_t* data, std::size_t size,
                   std::uint64_t expect_fingerprint, Schedule& out) {
  // Header first: magic and version are judged before truncation of the
  // body so "this is not a schedule file at all" wins over "it is short".
  if (size < sizeof kMagic) return DecodeError::kTruncated;
  if (std::memcmp(data, kMagic, sizeof kMagic) != 0) {
    return DecodeError::kBadMagic;
  }
  constexpr std::size_t kHeader = 8 + 4 + 8 + 4;
  if (size < kHeader) return DecodeError::kTruncated;
  if (get_u32(data + 8) != kScheduleVersion) return DecodeError::kBadVersion;
  const std::uint64_t fingerprint = get_u64(data + 12);
  const std::uint32_t count = get_u32(data + 20);
  const std::size_t need = kHeader + std::size_t{count} * 9 + 8;
  if (size < need) return DecodeError::kTruncated;
  const std::uint64_t want =
      fnv1a({reinterpret_cast<const char*>(data), need - 8});
  if (get_u64(data + need - 8) != want) return DecodeError::kBadChecksum;
  if (fingerprint != expect_fingerprint) return DecodeError::kBadFingerprint;
  Schedule s;
  s.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint8_t* rec = data + kHeader + std::size_t{i} * 9;
    const std::uint8_t kind = rec[0];
    if (kind < 1 || kind > 3) return DecodeError::kBadChecksum;
    s.push_back({static_cast<ChoiceKind>(kind), get_u64(rec + 1)});
  }
  out = std::move(s);
  return DecodeError::kOk;
}

bool save_file(const std::string& path, const Schedule& s,
               std::uint64_t fingerprint) {
  const std::vector<std::uint8_t> bytes = encode(s, fingerprint);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  return std::fclose(f) == 0 && ok;
}

DecodeError load_file(const std::string& path,
                      std::uint64_t expect_fingerprint, Schedule& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return DecodeError::kTruncated;
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return decode(bytes.data(), bytes.size(), expect_fingerprint, out);
}

}  // namespace svmsim::explore
