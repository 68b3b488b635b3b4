#include "net/framing.hpp"

#include "util/journal.hpp"

namespace kronotri::net {

namespace journal = util::journal;

FrameReader::Status FrameReader::next(std::string& payload) {
  constexpr std::string_view kMagic = "KTJ1";
  // Validate the magic as soon as any of it is buffered: a stream that
  // opens with garbage is corrupt now, not after 4 GiB of "length".
  const std::size_t have_magic = std::min(buf_.size(), kMagic.size());
  if (std::string_view(buf_).substr(0, have_magic) !=
      kMagic.substr(0, have_magic)) {
    return Status::kCorrupt;
  }
  if (buf_.size() < kMagic.size() + 8) return Status::kNeedMore;
  std::uint64_t len = 0;
  for (int i = 7; i >= 0; --i) {
    len = (len << 8) |
          static_cast<unsigned char>(buf_[kMagic.size() + static_cast<std::size_t>(i)]);
  }
  // A length no sane message reaches is corruption, not a huge frame —
  // refuse before trying to buffer it.
  constexpr std::uint64_t kMaxFrame = 1ull << 30;
  if (len > kMaxFrame) return Status::kCorrupt;
  const std::size_t total = journal::kFrameOverhead + static_cast<std::size_t>(len);
  if (buf_.size() < total) return Status::kNeedMore;
  const journal::Decoded dec =
      journal::decode_frames(std::string_view(buf_).substr(0, total));
  if (dec.tail != journal::Decoded::Tail::kClean || dec.frames.size() != 1) {
    return Status::kCorrupt;
  }
  payload = dec.frames[0];
  buf_.erase(0, total);
  return Status::kFrame;
}

std::string encode_message(const util::json::Value& msg) {
  return journal::encode_frame(msg.dump_string(0));
}

}  // namespace kronotri::net
