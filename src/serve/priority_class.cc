#include "serve/priority_class.h"

namespace ams::serve {

const char* PriorityClassName(PriorityClass cls) {
  switch (cls) {
    case PriorityClass::kInteractive:
      return "interactive";
    case PriorityClass::kStandard:
      return "standard";
    case PriorityClass::kBatch:
      return "batch";
  }
  return "unknown";
}

}  // namespace ams::serve
