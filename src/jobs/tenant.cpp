#include "jobs/tenant.hpp"

#include <cstdint>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>

#include "dsl/lexer.hpp"
#include "netrpc/layout.hpp"

namespace jobs {

const char* kind_name(TenantKind kind) {
  switch (kind) {
    case TenantKind::kAllreduce: return "allreduce";
    case TenantKind::kBestEffort: return "besteffort";
    case TenantKind::kNetRpc: return "netrpc";
  }
  return "?";
}

trio::TelemetryScope tenant_scope(TenantId id) {
  trio::TelemetryScope scope;
  scope.metric_prefix = "tenant." + std::to_string(int(id)) + ".";
  scope.process_prefix = scope.metric_prefix;
  scope.trace_pid_base = 900'000 + int(id) * 16;
  return scope;
}

JobsSpec JobsSpec::parse(const std::string& text) {
  JobsSpec spec;
  std::set<TenantId> seen;
  for (const dsl::Line& line : dsl::lines("jobs", text)) {
    const std::vector<dsl::Token>& tokens = line.tokens();
    if (tokens[0].text != "tenant") {
      line.fail(tokens[0].col, "unknown directive \"" + tokens[0].text +
                                   "\" (expected \"tenant\")");
    }
    if (tokens.size() < 3) {
      line.fail(tokens.back().col + int(tokens.back().text.size()),
                "expected \"tenant <id> <allreduce|besteffort> "
                "[key=value...]\"");
    }

    TenantSpec tenant;
    tenant.id = static_cast<TenantId>(line.integer(tokens[1], 1, 255,
                                                   "tenant id"));
    if (!seen.insert(tenant.id).second) {
      line.fail(tokens[1].col,
                "duplicate tenant id " + std::to_string(tenant.id));
    }

    if (tokens[2].text == "allreduce") {
      tenant.kind = TenantKind::kAllreduce;
    } else if (tokens[2].text == "besteffort") {
      tenant.kind = TenantKind::kBestEffort;
    } else if (tokens[2].text == "netrpc") {
      tenant.kind = TenantKind::kNetRpc;
    } else {
      line.fail(tokens[2].col,
                "unknown tenant kind \"" + tokens[2].text +
                    "\" (expected allreduce, besteffort or netrpc)");
    }

    for (std::size_t t = 3; t < tokens.size(); ++t) {
      const dsl::Token& tok = tokens[t];
      const std::optional<dsl::KeyValue> kv = dsl::key_value(tok);
      if (!kv) {
        line.fail(tok.col, "expected key=value, got \"" + tok.text + "\"");
      }
      const std::string& key = kv->key;
      const auto in = [&](std::uint64_t lo, std::uint64_t hi) {
        return line.integer(kv->value, lo, hi, key.c_str());
      };
      if (key == "weight") {
        tenant.weight = static_cast<std::uint32_t>(in(1, UINT32_MAX));
      } else if (key == "grads") {
        tenant.grads = static_cast<std::size_t>(in(1, SIZE_MAX));
      } else if (key == "window") {
        tenant.window = static_cast<std::uint32_t>(in(1, UINT32_MAX));
      } else if (key == "blocks") {
        tenant.block_cnt_max = static_cast<std::uint16_t>(in(1, 0xfff));
      } else if (key == "sms") {
        tenant.sms_quota_bytes = line.bytes(kv->value, "sms");
      } else if (key == "load") {
        tenant.load = line.fraction(kv->value, "load", /*zero_ok=*/false);
      } else if (key == "fluid") {
        tenant.fluid = in(0, 1) == 1;
      } else if (key == "policy") {
        const std::string& v = kv->value.text;
        if (v == "sum") {
          tenant.rpc_policy = netrpc::MergePolicy::kSum;
        } else if (v == "min") {
          tenant.rpc_policy = netrpc::MergePolicy::kMin;
        } else if (v == "majority") {
          tenant.rpc_policy = netrpc::MergePolicy::kMajority;
        } else {
          line.fail(kv->value.col, "policy must be sum, min or majority");
        }
      } else if (key == "values") {
        tenant.rpc_value_words =
            static_cast<std::uint16_t>(in(1, netrpc::kMaxValueWords));
      } else if (key == "servers") {
        tenant.rpc_servers = static_cast<std::uint8_t>(in(1, 255));
      } else if (key == "clients") {
        tenant.rpc_clients = static_cast<std::uint8_t>(in(1, 255));
      } else if (key == "rpcwindow") {
        tenant.rpc_window = static_cast<std::uint32_t>(
            in(1, netrpc::kPendingSlotsPerClient));
      } else if (key == "calls") {
        tenant.rpc_calls = static_cast<std::uint32_t>(in(0, UINT32_MAX));
      } else if (key == "gets") {
        tenant.rpc_gets = static_cast<std::uint32_t>(in(0, UINT32_MAX));
      } else if (key == "puts") {
        tenant.rpc_puts = static_cast<std::uint32_t>(in(0, UINT32_MAX));
      } else if (key == "hotkeys") {
        tenant.rpc_hot_keys = static_cast<std::uint32_t>(in(1, UINT32_MAX));
      } else {
        line.fail(tok.col, "unknown key \"" + key + "\"");
      }
    }
    spec.tenants.push_back(tenant);
  }
  return spec;
}

JobsSpec JobsSpec::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("jobs spec: cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse(text.str());
}

}  // namespace jobs
