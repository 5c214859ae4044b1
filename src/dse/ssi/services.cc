#include "dse/ssi/services.h"

#include <utility>

#include "common/check.h"

namespace dse::ssi {

SsiServices::SsiServices(NodeId self, const pm::ProcessTable* processes,
                         StatsFn stats)
    : self_(self), processes_(processes), stats_(std::move(stats)) {
  DSE_CHECK(processes_ != nullptr);
}

bool SsiServices::Handles(proto::MsgType type) {
  switch (type) {
    case proto::MsgType::kPsReq:
    case proto::MsgType::kConsoleOut:
    case proto::MsgType::kNamePublish:
    case proto::MsgType::kNameLookup:
    case proto::MsgType::kLoadReq:
    case proto::MsgType::kStatsReq:
      return true;
    default:
      return false;
  }
}

SsiServices::Effects SsiServices::WithReply(NodeId dst, std::uint64_t req_id,
                                            proto::Body body) const {
  proto::Envelope env;
  env.req_id = req_id;
  env.src_node = self_;
  env.body = std::move(body);
  Effects fx;
  fx.out.push_back(Reply{dst, std::move(env)});
  return fx;
}

SsiServices::Effects SsiServices::Handle(const proto::Envelope& env) {
  const NodeId src = env.src_node;
  const std::uint64_t rid = env.req_id;

  switch (env.type()) {
    case proto::MsgType::kPsReq: {
      proto::PsResp resp;
      resp.entries = processes_->Snapshot();
      return WithReply(src, rid, std::move(resp));
    }

    case proto::MsgType::kConsoleOut: {
      const auto& msg = std::get<proto::ConsoleOut>(env.body);
      Effects fx;
      std::string line = "[";
      line.append(GpidToString(msg.gpid)).append("] ").append(msg.text);
      fx.console.push_back(std::move(line));
      return fx;
    }

    case proto::MsgType::kNamePublish: {
      const auto& req = std::get<proto::NamePublish>(env.body);
      proto::NameAck resp;
      if (self_ != 0) {
        resp.error = static_cast<std::uint8_t>(ErrorCode::kFailedPrecondition);
      } else if (!names_.emplace(req.name, req.value).second) {
        resp.error = static_cast<std::uint8_t>(ErrorCode::kAlreadyExists);
      }
      return WithReply(src, rid, resp);
    }

    case proto::MsgType::kNameLookup: {
      const auto& req = std::get<proto::NameLookup>(env.body);
      proto::NameResp resp;
      const auto it = names_.find(req.name);
      if (self_ != 0) {
        resp.error = static_cast<std::uint8_t>(ErrorCode::kFailedPrecondition);
      } else if (it == names_.end()) {
        resp.error = static_cast<std::uint8_t>(ErrorCode::kNotFound);
      } else {
        resp.value = it->second;
      }
      return WithReply(src, rid, resp);
    }

    case proto::MsgType::kLoadReq: {
      proto::LoadResp resp;
      resp.running_tasks =
          static_cast<std::uint32_t>(processes_->running_count());
      return WithReply(src, rid, resp);
    }

    case proto::MsgType::kStatsReq: {
      proto::StatsResp resp;
      if (stats_) resp.counters = stats_();
      return WithReply(src, rid, std::move(resp));
    }

    default:
      DSE_CHECK_MSG(false, "non-SSI message routed to SsiServices");
  }
  return {};
}

}  // namespace dse::ssi
