#include "lcda/dist/protocol.h"

#include <climits>
#include <cmath>

#include "lcda/util/json_lite.h"

namespace lcda::dist {

namespace {

using util::Json;

const char* command_name(WorkerCommand::Kind kind) {
  switch (kind) {
    case WorkerCommand::Kind::kRun: return "run";
    case WorkerCommand::Kind::kRevoke: return "revoke";
    case WorkerCommand::Kind::kShutdown: return "shutdown";
  }
  return "run";
}

const char* reply_name(WorkerReply::Kind kind) {
  switch (kind) {
    case WorkerReply::Kind::kSeedStart: return "seed-start";
    case WorkerReply::Kind::kSeedDone: return "seed-done";
    case WorkerReply::Kind::kHeartbeat: return "heartbeat";
    case WorkerReply::Kind::kDone: return "done";
    case WorkerReply::Kind::kFailed: return "failed";
  }
  return "done";
}

/// Parses `line` into a v2 message object; nullopt for invalid JSON, a
/// non-object, or a wrong format tag.
std::optional<Json> parse_envelope(std::string_view line) {
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.remove_suffix(1);
  }
  Json doc;
  try {
    doc = Json::parse(line);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (!doc.is_object() || !doc.contains("format") ||
      !doc.at("format").is_string() ||
      doc.at("format").as_string() != kWorkerCmdFormat) {
    return std::nullopt;
  }
  return doc;
}

/// The string field `key`, or nullopt when absent or not a string.
std::optional<std::string> string_field(const Json& doc, const char* key) {
  if (!doc.contains(key) || !doc.at(key).is_string()) return std::nullopt;
  return doc.at(key).as_string();
}

/// A seed index: an integral number in [0, INT_MAX].
std::optional<int> seed_value(const Json& v) {
  if (!v.is_number()) return std::nullopt;
  const double d = v.as_double();
  if (d != std::floor(d) || d < 0.0 || d > INT_MAX) return std::nullopt;
  return static_cast<int>(d);
}

/// The seed list under "revoked"; absent means none.
std::optional<std::vector<int>> revoked_field(const Json& doc) {
  std::vector<int> seeds;
  if (!doc.contains("revoked")) return seeds;
  if (!doc.at("revoked").is_array()) return std::nullopt;
  for (const Json& s : doc.at("revoked").elements()) {
    const std::optional<int> seed = seed_value(s);
    if (!seed) return std::nullopt;
    seeds.push_back(*seed);
  }
  return seeds;
}

}  // namespace

std::string encode_worker_command(const WorkerCommand& cmd) {
  Json doc = Json::object();
  doc["format"] = kWorkerCmdFormat;
  doc["cmd"] = command_name(cmd.kind);
  if (cmd.kind == WorkerCommand::Kind::kRun) doc["spec_path"] = cmd.spec_path;
  if (cmd.kind != WorkerCommand::Kind::kShutdown && !cmd.revoked.empty()) {
    Json seeds = Json::array();
    for (int s : cmd.revoked) seeds.push_back(s);
    doc["revoked"] = seeds;
  }
  return doc.dump() + "\n";
}

std::string encode_worker_reply(const WorkerReply& reply) {
  Json doc = Json::object();
  doc["format"] = kWorkerCmdFormat;
  doc["reply"] = reply_name(reply.kind);
  switch (reply.kind) {
    case WorkerReply::Kind::kSeedStart:
    case WorkerReply::Kind::kSeedDone:
      doc["seed"] = reply.seed;
      if (reply.kind == WorkerReply::Kind::kSeedDone) {
        doc["wall_ms"] = reply.wall_ms;
      }
      break;
    case WorkerReply::Kind::kDone:
      doc["manifest_path"] = reply.manifest_path;
      break;
    case WorkerReply::Kind::kFailed:
      doc["reason"] = reply.reason;
      break;
    case WorkerReply::Kind::kHeartbeat:
      break;
  }
  return doc.dump() + "\n";
}

std::optional<WorkerCommand> parse_worker_command(std::string_view line) {
  const std::optional<Json> doc = parse_envelope(line);
  if (!doc) return std::nullopt;
  const std::optional<std::string> name = string_field(*doc, "cmd");
  if (!name) return std::nullopt;
  WorkerCommand cmd;
  if (*name == "shutdown") {
    cmd.kind = WorkerCommand::Kind::kShutdown;
    return cmd;
  }
  if (*name == "run") {
    cmd.kind = WorkerCommand::Kind::kRun;
    const std::optional<std::string> path = string_field(*doc, "spec_path");
    if (!path) return std::nullopt;
    cmd.spec_path = *path;
  } else if (*name == "revoke") {
    cmd.kind = WorkerCommand::Kind::kRevoke;
  } else {
    return std::nullopt;
  }
  std::optional<std::vector<int>> revoked = revoked_field(*doc);
  if (!revoked) return std::nullopt;
  cmd.revoked = std::move(*revoked);
  return cmd;
}

std::optional<WorkerReply> parse_worker_reply(std::string_view line) {
  const std::optional<Json> doc = parse_envelope(line);
  if (!doc) return std::nullopt;
  const std::optional<std::string> name = string_field(*doc, "reply");
  if (!name) return std::nullopt;
  WorkerReply reply;
  if (*name == "seed-start" || *name == "seed-done") {
    reply.kind = *name == "seed-start" ? WorkerReply::Kind::kSeedStart
                                       : WorkerReply::Kind::kSeedDone;
    const std::optional<int> seed =
        doc->contains("seed") ? seed_value(doc->at("seed")) : std::nullopt;
    if (!seed) return std::nullopt;
    reply.seed = *seed;
    if (reply.kind == WorkerReply::Kind::kSeedDone) {
      if (!doc->contains("wall_ms") || !doc->at("wall_ms").is_number()) {
        return std::nullopt;
      }
      reply.wall_ms = doc->at("wall_ms").as_double();
      if (!(reply.wall_ms >= 0.0)) return std::nullopt;
    }
  } else if (*name == "heartbeat") {
    reply.kind = WorkerReply::Kind::kHeartbeat;
  } else if (*name == "done") {
    reply.kind = WorkerReply::Kind::kDone;
    const std::optional<std::string> path =
        string_field(*doc, "manifest_path");
    if (!path) return std::nullopt;
    reply.manifest_path = *path;
  } else if (*name == "failed") {
    reply.kind = WorkerReply::Kind::kFailed;
    reply.reason = string_field(*doc, "reason").value_or("");
  } else {
    return std::nullopt;
  }
  return reply;
}

std::optional<std::string> LineBuffer::next_line() {
  const std::size_t nl = pending_.find('\n');
  if (nl == std::string::npos) return std::nullopt;
  std::string line = pending_.substr(0, nl);
  pending_.erase(0, nl + 1);
  return line;
}

}  // namespace lcda::dist
