// Seeded property tests for the wire layer: XDR round-trips, decoder
// behaviour on truncated and bit-corrupted inputs (no crash, no over-read,
// clean ok()==false on any short field), and checksum chainability. These
// are the decoders every fault-injected torture frame flows through.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nas/wire_util.h"
#include "rpc/xdr.h"

namespace ordma {
namespace {

using rpc::XdrDecoder;
using rpc::XdrEncoder;

// A random script of encode operations, replayable against a decoder.
struct Token {
  enum class Kind { u32, u64, i64, opaque, str } kind;
  std::uint64_t value = 0;
  std::vector<std::byte> bytes;
  std::string text;
};

std::vector<Token> random_script(Rng& rng) {
  std::vector<Token> script(1 + rng.below(12));
  for (Token& t : script) {
    switch (rng.below(5)) {
      case 0:
        t.kind = Token::Kind::u32;
        t.value = rng.below(1ull << 32);
        break;
      case 1:
        t.kind = Token::Kind::u64;
        t.value = rng.below(~std::uint64_t{0});
        break;
      case 2:
        t.kind = Token::Kind::i64;
        t.value = rng.below(~std::uint64_t{0});
        break;
      case 3: {
        t.kind = Token::Kind::opaque;
        t.bytes.resize(rng.below(64));
        for (auto& b : t.bytes) b = static_cast<std::byte>(rng.below(256));
        break;
      }
      default: {
        t.kind = Token::Kind::str;
        t.text.resize(rng.below(32));
        for (auto& c : t.text)
          c = static_cast<char>('a' + rng.below(26));
        break;
      }
    }
  }
  return script;
}

std::vector<std::byte> encode_script(const std::vector<Token>& script) {
  XdrEncoder enc;
  for (const Token& t : script) {
    switch (t.kind) {
      case Token::Kind::u32:
        enc.u32(static_cast<std::uint32_t>(t.value));
        break;
      case Token::Kind::u64:
        enc.u64(t.value);
        break;
      case Token::Kind::i64:
        enc.i64(static_cast<std::int64_t>(t.value));
        break;
      case Token::Kind::opaque:
        enc.opaque(t.bytes);
        break;
      case Token::Kind::str:
        enc.str(t.text);
        break;
    }
  }
  return enc.take();
}

// Replay the script against `data`; returns the decoder's final ok() state.
// Must never crash or read outside `data` regardless of its contents.
bool decode_script(const std::vector<Token>& script,
                   std::span<const std::byte> data, bool check_values) {
  XdrDecoder dec(data);
  for (const Token& t : script) {
    switch (t.kind) {
      case Token::Kind::u32: {
        const std::uint32_t v = dec.u32();
        if (check_values) { EXPECT_EQ(v, static_cast<std::uint32_t>(t.value)); }
        break;
      }
      case Token::Kind::u64: {
        const std::uint64_t v = dec.u64();
        if (check_values) { EXPECT_EQ(v, t.value); }
        break;
      }
      case Token::Kind::i64: {
        const std::int64_t v = dec.i64();
        if (check_values) { EXPECT_EQ(v, static_cast<std::int64_t>(t.value)); }
        break;
      }
      case Token::Kind::opaque: {
        const auto s = dec.opaque();
        if (check_values) {
          EXPECT_EQ(s.size(), t.bytes.size());
          EXPECT_TRUE(s.size() == t.bytes.size() &&
                      std::equal(s.begin(), s.end(), t.bytes.begin()));
        }
        break;
      }
      case Token::Kind::str: {
        const std::string s = dec.str();
        if (check_values) { EXPECT_EQ(s, t.text); }
        break;
      }
    }
  }
  return dec.ok();
}

TEST(WireFuzz, RandomScriptsRoundTrip) {
  Rng rng(0xf00dull);
  for (int iter = 0; iter < 200; ++iter) {
    const auto script = random_script(rng);
    const auto bytes = encode_script(script);
    EXPECT_TRUE(decode_script(script, bytes, /*check_values=*/true));
  }
}

TEST(WireFuzz, EveryTruncationFailsCleanly) {
  // A script needs exactly `bytes.size()` input bytes, so decoding any
  // strict prefix must end with ok()==false — never a crash or over-read.
  Rng rng(0xbeefull);
  for (int iter = 0; iter < 100; ++iter) {
    const auto script = random_script(rng);
    const auto bytes = encode_script(script);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      EXPECT_FALSE(decode_script(script, {bytes.data(), cut},
                                 /*check_values=*/false))
          << "prefix of " << cut << '/' << bytes.size()
          << " bytes decoded as complete";
    }
  }
}

TEST(WireFuzz, BitCorruptionNeverCrashesTheDecoder) {
  // Flipped bits may garble values (that's the RPC checksum's job to catch)
  // but the decoder itself must stay memory-safe and terminate. Length
  // prefixes are the dangerous bits: a flipped opaque length must fail the
  // bounds check, not walk off the end of the buffer.
  Rng rng(0xc0ffeeull);
  for (int iter = 0; iter < 300; ++iter) {
    const auto script = random_script(rng);
    auto bytes = encode_script(script);
    if (bytes.empty()) continue;
    const unsigned flips = 1 + rng.below(4);
    for (unsigned f = 0; f < flips; ++f) {
      const std::size_t i = rng.below(bytes.size());
      bytes[i] ^= static_cast<std::byte>(1u << rng.below(8));
    }
    decode_script(script, bytes, /*check_values=*/false);  // must not crash
  }
}

TEST(WireFuzz, StructDecodersSurviveArbitraryBytes) {
  Rng rng(0xdecafull);
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<std::byte> junk(rng.below(96));
    for (auto& b : junk) b = static_cast<std::byte>(rng.below(256));
    {
      XdrDecoder dec(junk);
      (void)nas::decode_attr(dec);
      if (junk.size() < 32) { EXPECT_FALSE(dec.ok()); }
    }
    {
      XdrDecoder dec(junk);
      (void)nas::decode_cap(dec);
      if (junk.size() < 40) { EXPECT_FALSE(dec.ok()); }
    }
    {
      XdrDecoder dec(junk);
      (void)nas::decode_ref(dec);
      if (junk.size() < 64) { EXPECT_FALSE(dec.ok()); }
    }
  }
}

TEST(WireFuzz, StructRoundTrips) {
  Rng rng(0x5eedull);
  for (int iter = 0; iter < 100; ++iter) {
    fs::Attr a;
    a.ino = rng.below(~std::uint64_t{0});
    a.type = static_cast<fs::FileType>(rng.below(2));
    a.size = rng.below(~std::uint64_t{0});
    a.mtime = SimTime{static_cast<std::int64_t>(rng.below(1ull << 62))};
    a.nlink = static_cast<std::uint32_t>(rng.below(1ull << 32));

    cache::RemoteRef r;
    r.seg_id = rng.below(~std::uint64_t{0});
    r.va = rng.below(~std::uint64_t{0});
    r.len = rng.below(~std::uint64_t{0});
    r.cap.segment_id = rng.below(~std::uint64_t{0});
    r.cap.base = rng.below(~std::uint64_t{0});
    r.cap.length = rng.below(~std::uint64_t{0});
    r.cap.perm = static_cast<crypto::SegPerm>(rng.below(4));
    r.cap.generation = static_cast<std::uint32_t>(rng.below(1ull << 32));
    r.cap.mac = rng.below(~std::uint64_t{0});

    XdrEncoder enc;
    nas::encode_attr(enc, a);
    nas::encode_ref(enc, r);
    const auto bytes = enc.take();

    XdrDecoder dec(bytes);
    const fs::Attr a2 = nas::decode_attr(dec);
    const cache::RemoteRef r2 = nas::decode_ref(dec);
    ASSERT_TRUE(dec.ok());
    EXPECT_EQ(dec.remaining(), 0u);
    EXPECT_EQ(a2.ino, a.ino);
    EXPECT_EQ(a2.type, a.type);
    EXPECT_EQ(a2.size, a.size);
    EXPECT_EQ(a2.mtime.ns, a.mtime.ns);
    EXPECT_EQ(a2.nlink, a.nlink);
    EXPECT_EQ(r2.seg_id, r.seg_id);
    EXPECT_EQ(r2.va, r.va);
    EXPECT_EQ(r2.len, r.len);
    EXPECT_EQ(r2.cap.segment_id, r.cap.segment_id);
    EXPECT_EQ(r2.cap.base, r.cap.base);
    EXPECT_EQ(r2.cap.length, r.cap.length);
    EXPECT_EQ(r2.cap.perm, r.cap.perm);
    EXPECT_EQ(r2.cap.generation, r.cap.generation);
    EXPECT_EQ(r2.cap.mac, r.cap.mac);
  }
}

TEST(WireFuzz, WritePathStructsRoundTrip) {
  // The ORDMA write-path messages: put-commit args, server→client
  // invalidations, and piggybacked reference records with and without
  // the commit version.
  Rng rng(0x9412ull);
  for (int iter = 0; iter < 100; ++iter) {
    nas::PutCommitArgs p;
    p.fh = rng.below(~std::uint64_t{0});
    p.fbn = rng.below(~std::uint64_t{0});
    p.off = static_cast<std::uint32_t>(rng.below(1ull << 32));
    p.len = static_cast<std::uint32_t>(rng.below(1ull << 32));
    p.cksum = static_cast<std::uint32_t>(rng.below(1ull << 32));
    p.flags = static_cast<std::uint32_t>(rng.below(1ull << 32));

    nas::InvalidateMsg m;
    m.ino = rng.below(~std::uint64_t{0});
    m.fbn = rng.below(~std::uint64_t{0});
    m.version = rng.below(~std::uint64_t{0});

    nas::RefRecord v;
    v.fbn = rng.below(~std::uint64_t{0});
    v.version = rng.below(~std::uint64_t{0});
    v.ref.seg_id = rng.below(~std::uint64_t{0});
    v.ref.va = rng.below(~std::uint64_t{0});
    v.ref.len = rng.below(~std::uint64_t{0});
    v.ref.cap.segment_id = rng.below(~std::uint64_t{0});
    v.ref.cap.base = rng.below(~std::uint64_t{0});
    v.ref.cap.length = rng.below(~std::uint64_t{0});
    v.ref.cap.perm = static_cast<crypto::SegPerm>(rng.below(4));
    v.ref.cap.generation = static_cast<std::uint32_t>(rng.below(1ull << 32));
    v.ref.cap.mac = rng.below(~std::uint64_t{0});

    XdrEncoder enc;
    nas::encode_put_commit(enc, p);
    nas::encode_invalidate(enc, m);
    nas::encode_ref_record(enc, v, /*versioned=*/true);
    nas::encode_ref_record(enc, v, /*versioned=*/false);
    const auto bytes = enc.take();

    XdrDecoder dec(bytes);
    const nas::PutCommitArgs p2 = nas::decode_put_commit(dec);
    const nas::InvalidateMsg m2 = nas::decode_invalidate(dec);
    const nas::RefRecord v2 = nas::decode_ref_record(dec, true);
    const nas::RefRecord v3 = nas::decode_ref_record(dec, false);
    ASSERT_TRUE(dec.ok());
    EXPECT_EQ(dec.remaining(), 0u);
    EXPECT_EQ(p2.fh, p.fh);
    EXPECT_EQ(p2.fbn, p.fbn);
    EXPECT_EQ(p2.off, p.off);
    EXPECT_EQ(p2.len, p.len);
    EXPECT_EQ(p2.cksum, p.cksum);
    EXPECT_EQ(p2.flags, p.flags);
    EXPECT_EQ(m2.ino, m.ino);
    EXPECT_EQ(m2.fbn, m.fbn);
    EXPECT_EQ(m2.version, m.version);
    EXPECT_EQ(v2.fbn, v.fbn);
    EXPECT_EQ(v2.version, v.version);
    EXPECT_EQ(v2.ref.seg_id, v.ref.seg_id);
    EXPECT_EQ(v2.ref.va, v.ref.va);
    EXPECT_EQ(v2.ref.len, v.ref.len);
    EXPECT_EQ(v2.ref.cap.segment_id, v.ref.cap.segment_id);
    EXPECT_EQ(v2.ref.cap.base, v.ref.cap.base);
    EXPECT_EQ(v2.ref.cap.length, v.ref.cap.length);
    EXPECT_EQ(v2.ref.cap.perm, v.ref.cap.perm);
    EXPECT_EQ(v2.ref.cap.generation, v.ref.cap.generation);
    EXPECT_EQ(v2.ref.cap.mac, v.ref.cap.mac);
    EXPECT_EQ(v3.fbn, v.fbn);
    EXPECT_EQ(v3.version, 0u);  // not on the wire
    EXPECT_EQ(v3.ref.seg_id, v.ref.seg_id);
    EXPECT_EQ(v3.ref.va, v.ref.va);
    EXPECT_EQ(v3.ref.len, v.ref.len);
    EXPECT_EQ(v3.ref.cap.segment_id, v.ref.cap.segment_id);
    EXPECT_EQ(v3.ref.cap.base, v.ref.cap.base);
    EXPECT_EQ(v3.ref.cap.length, v.ref.cap.length);
    EXPECT_EQ(v3.ref.cap.perm, v.ref.cap.perm);
    EXPECT_EQ(v3.ref.cap.generation, v.ref.cap.generation);
    EXPECT_EQ(v3.ref.cap.mac, v.ref.cap.mac);

    // Truncation: every strict prefix of the concatenation must end with
    // ok()==false when replayed through the same decode sequence.
    for (std::size_t cut = 0; cut < bytes.size(); cut += 7) {
      XdrDecoder cutdec(std::span<const std::byte>(bytes.data(), cut));
      (void)nas::decode_put_commit(cutdec);
      (void)nas::decode_invalidate(cutdec);
      (void)nas::decode_ref_record(cutdec, true);
      (void)nas::decode_ref_record(cutdec, false);
      EXPECT_FALSE(cutdec.ok()) << "prefix " << cut << " decoded complete";
    }
  }
}

TEST(WireFuzz, WritePathDecodersSurviveCorruptBytes) {
  // Bit-flipped and arbitrary junk frames must never crash the write-path
  // decoders (the NIC/fault layer feeds them exactly this under torture).
  Rng rng(0x7a31ull);
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<std::byte> junk(rng.below(96));
    for (auto& b : junk) b = static_cast<std::byte>(rng.below(256));
    {
      XdrDecoder dec(junk);
      (void)nas::decode_put_commit(dec);
      if (junk.size() < 32) { EXPECT_FALSE(dec.ok()); }
    }
    {
      XdrDecoder dec(junk);
      (void)nas::decode_invalidate(dec);
      if (junk.size() < 24) { EXPECT_FALSE(dec.ok()); }
    }
    {
      XdrDecoder dec(junk);
      (void)nas::decode_ref_record(dec, /*versioned=*/true);
      if (junk.size() < 80) { EXPECT_FALSE(dec.ok()); }
    }
    {
      XdrDecoder dec(junk);
      (void)nas::decode_ref_record(dec, /*versioned=*/false);
      if (junk.size() < 72) { EXPECT_FALSE(dec.ok()); }
    }
  }
}

TEST(WireFuzz, Checksum32ChainsAcrossRegions) {
  // checksum32(a ++ b) == checksum32(b, checksum32(a)) — the property the
  // RPC layer relies on to checksum header + results + RDDP-placed bulk
  // data as one stream without concatenating them. Streams run from a few
  // bytes to several KB and split anywhere, so either side of the split
  // may take the folding kernel (64 bytes and up) or the table loop.
  Rng rng(0xcafeull);
  for (int iter = 0; iter < 400; ++iter) {
    std::vector<std::byte> ab(rng.below(iter % 4 == 0 ? 5000 : 600));
    for (auto& x : ab) x = static_cast<std::byte>(rng.below(256));
    const std::size_t split = rng.below(ab.size() + 1);
    const std::span<const std::byte> a(ab.data(), split);
    const std::span<const std::byte> b(ab.data() + split, ab.size() - split);
    EXPECT_EQ(rpc::checksum32(ab), rpc::checksum32(b, rpc::checksum32(a)));
    // And the empty region is the identity under chaining.
    EXPECT_EQ(rpc::checksum32({}, rpc::checksum32(a)), rpc::checksum32(a));
  }
}

}  // namespace
}  // namespace ordma
