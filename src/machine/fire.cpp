#include "machine/fire.hpp"

namespace ctdf::machine {

void MemoryState::init(std::size_t memory_cells,
                       const std::vector<lang::CellRegion>& istructures) {
  store.cells.assign(memory_cells, 0);
  istate.assign(memory_cells, kNormal);
  for (const auto& r : istructures)
    for (std::uint32_t c = r.base; c < r.base + r.extent; ++c)
      istate[c] = kEmpty;
}

MemAccess resolve_mem(const ExecOp& op, const std::int64_t* in,
                      std::size_t num_cells) {
  const auto cell_of = [&](std::int64_t index) {
    const std::int64_t w = lang::wrap_index(index, op.mem_extent);
    const std::uint64_t cell = op.mem_base + static_cast<std::uint64_t>(w);
    CTDF_ASSERT(cell < num_cells);
    return cell;
  };
  MemAccess a{};
  switch (op.kind) {
    case dfg::OpKind::kLoad:
      a.cell = op.mem_base;
      CTDF_ASSERT(a.cell < num_cells);
      break;
    case dfg::OpKind::kLoadIdx:
      a.cell = cell_of(in[0]);
      break;
    case dfg::OpKind::kStore:
      a.cell = op.mem_base;
      CTDF_ASSERT(a.cell < num_cells);
      a.store_value = in[0];
      break;
    case dfg::OpKind::kStoreIdx:
    case dfg::OpKind::kIStore:
      a.cell = cell_of(in[1]);
      a.store_value = in[0];
      break;
    case dfg::OpKind::kIFetch:
      a.cell = cell_of(in[0]);
      break;
    default:
      CTDF_UNREACHABLE("not a memory op");
  }
  return a;
}

}  // namespace ctdf::machine
