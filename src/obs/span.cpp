#include "obs/span.hpp"

#include "common/assert.hpp"

namespace ppf::obs {

const char* to_string(SpanName n) {
  switch (n) {
    case SpanName::Request: return "serve.request";
    case SpanName::QueueWait: return "serve.queue_wait";
    case SpanName::MemoLookup: return "serve.memo_lookup";
    case SpanName::CacheProbe: return "serve.cache_probe";
    case SpanName::Execute: return "serve.execute";
    case SpanName::StageFetch: return "serve.stage.fetch";
    case SpanName::StageProbe: return "serve.stage.probe";
    case SpanName::StageRetire: return "serve.stage.retire";
    case SpanName::StageMemsys: return "serve.stage.memsys";
    case SpanName::Serialize: return "serve.serialize";
  }
  PPF_ASSERT_MSG(false, "unhandled SpanName");
  return "serve.unknown";
}

const std::vector<SpanNameDoc>& span_name_docs() {
  static const std::vector<SpanNameDoc> docs = {
      {"serve.request",
       "whole run request: admission through serialized response"},
      {"serve.queue_wait",
       "admission-queue wait, enqueue to worker pickup"},
      {"serve.memo_lookup", "result-memo probe"},
      {"serve.cache_probe",
       "trace-arena + warmup-snapshot cache acquisition"},
      {"serve.execute", "runlab execution (cache probe + simulation)"},
      {"serve.stage.fetch",
       "fetch/dispatch stage-kernel share (sampled)"},
      {"serve.stage.probe", "L1D probe stage-kernel share"},
      {"serve.stage.retire", "retire stage-kernel share"},
      {"serve.stage.memsys", "memory-hierarchy stage-kernel share"},
      {"serve.serialize", "response serialization"},
  };
  return docs;
}

}  // namespace ppf::obs
