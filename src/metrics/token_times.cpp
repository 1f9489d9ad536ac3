#include "metrics/token_times.h"

namespace vidur {

TokenTimeline::TokenTimeline(int num_slots) {
  VIDUR_CHECK_MSG(num_slots >= 1, "a token timeline needs at least one slot");
  slots_.resize(static_cast<std::size_t>(num_slots));
}

TokenTimes::TokenTimes(std::initializer_list<Seconds> times)
    : TokenTimes(std::vector<Seconds>(times)) {}

TokenTimes::TokenTimes(const std::vector<Seconds>& times) {
  const auto timeline = std::make_shared<TokenTimeline>(1);
  for (const Seconds t : times) append(timeline, 0, timeline->push(0, t), t);
}

void TokenTimes::bind(std::shared_ptr<const TokenTimeline> timeline) {
  VIDUR_CHECK_MSG(runs_.empty(),
                  "only a record without token times can be bound to a "
                  "token timeline");
  timeline_ = std::move(timeline);
}

void TokenTimes::adopt(const std::shared_ptr<TokenTimeline>& timeline) {
  VIDUR_CHECK_MSG(timeline_ == nullptr,
                  "token appended against another run's token timeline");
  timeline_ = timeline;
}

}  // namespace vidur
