// Wire framing of the agent transport: util::journal CRC-64 frames
// ("KTJ1" | u64 LE length | payload | u64 LE crc64) carried over a
// stream socket, payloads being one JSON object each. The SAME frame
// format the runner journals to disk — a fragment that crossed the
// network verifies with the identical checksum discipline a fragment
// read from a crashed coordinator's journal does.
//
// Protocol (all messages carry "type"):
//   coordinator → agent
//     {"type":"hello","proto":1}
//     {"type":"dispatch","unit":U,"attempt":A,"plan":"<RunPlan JSON>",
//      "fault":"<spec>","mem_limit":N,"trace":bool}
//     {"type":"cancel","unit":U,"attempt":A}        kill/forget the attempt
//   agent → coordinator
//     {"type":"welcome","proto":1,"slots":N,"pid":P}
//     {"type":"heartbeat"}                          liveness, every ~250 ms
//     {"type":"result","unit":U,"attempt":A,"outcome":"ok|exit|signal|oom|
//      truncated|spawn_failed|cancelled","detail":D,"pid":P,"wall_s":W,
//      "max_rss_bytes":R,"cpu_user_s":…,"cpu_sys_s":…,"omp_threads":T,
//      "fragment":"<RunReport JSON>",               ok only
//      "trace":"<trace doc JSON>"}                  when tracing was asked
//     outcome/detail are what runner::proc::classify returned for the
//     child; "cancelled" answers a cancel of a job that never spawned.
//
// A frame that fails its CRC poisons the stream (no resync marker): the
// reader reports kCorrupt, the coordinator drops the connection,
// classifies in-flight attempts "garbled" and re-dispatches — exactly
// the torn-journal recovery story, applied to a socket.
#pragma once

#include <string>
#include <string_view>

#include "util/json.hpp"

namespace kronotri::net {

/// Incremental decoder of journal frames from a byte stream. feed()
/// appends received bytes; next() yields verified payloads one at a
/// time without re-checksumming partial frames (the length prefix gates
/// the CRC pass until a whole candidate frame is buffered).
class FrameReader {
 public:
  enum class Status {
    kFrame,     ///< one verified payload extracted
    kNeedMore,  ///< no complete frame buffered yet
    kCorrupt,   ///< bad magic/length/CRC — the stream is poisoned
  };

  void feed(std::string_view bytes) { buf_.append(bytes); }
  Status next(std::string& payload);
  [[nodiscard]] std::size_t buffered() const noexcept { return buf_.size(); }
  void reset() { buf_.clear(); }

 private:
  std::string buf_;
};

/// `msg` dumped at indent 0 inside one encoded frame — the unit of
/// transmission for every protocol message.
[[nodiscard]] std::string encode_message(const util::json::Value& msg);

/// Protocol version stamped into hello/welcome.
inline constexpr int kProtoVersion = 1;

}  // namespace kronotri::net
