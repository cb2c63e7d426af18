#include "multigpu/allreduce.h"

namespace gbdt::multigpu {

const char* allreduce_algo_name(AllreduceAlgo a) {
  switch (a) {
    case AllreduceAlgo::kAllToOne:
      return "alltoone";
    case AllreduceAlgo::kRing:
      return "ring";
    case AllreduceAlgo::kTree:
      return "tree";
  }
  return "?";
}

bool parse_allreduce_algo(std::string_view s, AllreduceAlgo& out) {
  if (s == "alltoone" || s == "all-to-one") {
    out = AllreduceAlgo::kAllToOne;
  } else if (s == "ring") {
    out = AllreduceAlgo::kRing;
  } else if (s == "tree") {
    out = AllreduceAlgo::kTree;
  } else {
    return false;
  }
  return true;
}

}  // namespace gbdt::multigpu
