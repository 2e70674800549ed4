//===- analysis/InstIndex.h - Program-wide dense instruction ids ----------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bijection between InstRef positions and dense instruction ids in
/// program layout order. Because InstRef's lexicographic (Func, Block,
/// Inst) order *is* layout order, ascending id order reproduces the
/// iteration order of a std::set<InstRef> — which lets the slicer keep
/// instruction sets in flat BitVectors without perturbing any output the
/// deterministic-adaptation contract pins.
///
//===----------------------------------------------------------------------===//

#ifndef SSP_ANALYSIS_INSTINDEX_H
#define SSP_ANALYSIS_INSTINDEX_H

#include "analysis/InstRef.h"

#include <cstdint>
#include <vector>

namespace ssp::analysis {

class InstIndex {
public:
  InstIndex() = default;

  explicit InstIndex(const ir::Program &P) {
    BlockOff.reserve(P.numFuncs());
    FuncBase.reserve(P.numFuncs() + 1);
    for (uint32_t FI = 0; FI < P.numFuncs(); ++FI) {
      const ir::Function &F = P.func(FI);
      BlockOff.push_back(static_cast<uint32_t>(BlockBase.size()));
      FuncBase.push_back(static_cast<uint32_t>(Refs.size()));
      for (uint32_t BI = 0; BI < F.numBlocks(); ++BI) {
        BlockBase.push_back(static_cast<uint32_t>(Refs.size()));
        const ir::BasicBlock &BB = F.block(BI);
        for (uint32_t II = 0; II < BB.Insts.size(); ++II)
          Refs.push_back({FI, BI, II});
      }
    }
    FuncBase.push_back(static_cast<uint32_t>(Refs.size()));
  }

  uint32_t numInsts() const { return static_cast<uint32_t>(Refs.size()); }

  /// Dense layout-order id of \p R.
  uint32_t id(const InstRef &R) const {
    return BlockBase[BlockOff[R.Func] + R.Block] + R.Inst;
  }

  /// Id of the first instruction of \p Func. A function's ids are the
  /// contiguous range [firstId(Func), firstId(Func + 1)); Func may be
  /// numFuncs(), which gives numInsts().
  uint32_t firstId(uint32_t Func) const { return FuncBase[Func]; }

  /// Position of dense id \p Id.
  const InstRef &ref(uint32_t Id) const { return Refs[Id]; }

private:
  std::vector<uint32_t> BlockOff;  ///< Func -> first entry in BlockBase.
  std::vector<uint32_t> BlockBase; ///< (Func, Block) -> id of first inst.
  std::vector<uint32_t> FuncBase;  ///< Func -> id of first inst (+ end).
  std::vector<InstRef> Refs;       ///< Id -> position.
};

} // namespace ssp::analysis

#endif // SSP_ANALYSIS_INSTINDEX_H
