#include "protocol/action_codec.h"

namespace dcp::protocol {

std::vector<uint8_t> EncodeStagedAction(const StagedAction& action) {
  store::ByteWriter w;
  store::Put{w}(action);
  return w.Take();
}

bool DecodeStagedAction(const std::vector<uint8_t>& blob,
                        StagedAction* action) {
  store::ByteReader r(blob);
  return store::Get{r}(*action) && r.remaining() == 0;
}

}  // namespace dcp::protocol
