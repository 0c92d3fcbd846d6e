// Umbrella header: everything a downstream user of the ptycho library
// needs. Include this (or the individual module headers listed in
// README.md's architecture table for faster builds).
#pragma once

#include "backend/kernels.hpp"

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/options.hpp"
#include "common/parallel.hpp"
#include "common/random.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"

#include "tensor/array.hpp"
#include "tensor/framed.hpp"
#include "tensor/ops.hpp"
#include "tensor/region.hpp"

#include "obs/metrics.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"

#include "fft/fft2d.hpp"
#include "fft/plan.hpp"

#include "physics/grid.hpp"
#include "physics/multislice.hpp"
#include "physics/probe.hpp"
#include "physics/propagator.hpp"
#include "physics/scan.hpp"

#include "data/dataset.hpp"
#include "data/io.hpp"
#include "data/simulate.hpp"
#include "data/synthetic.hpp"

#include "runtime/cluster.hpp"
#include "runtime/collectives.hpp"
#include "runtime/perfmodel.hpp"
#include "runtime/topology.hpp"
#include "runtime/transport.hpp"

#include "partition/assignment.hpp"
#include "partition/overlap.hpp"
#include "partition/tilegrid.hpp"

#include "ckpt/serialize.hpp"
#include "ckpt/snapshot.hpp"

#include "core/convergence.hpp"
#include "core/exec_options.hpp"
#include "core/gradient_decomposition.hpp"
#include "core/halo_voxel_exchange.hpp"
#include "core/memory_model.hpp"
#include "core/passes.hpp"
#include "core/pipeline.hpp"
#include "core/reconstructor.hpp"
#include "core/seam_metric.hpp"
#include "core/serial_solver.hpp"
#include "core/stitcher.hpp"
#include "core/sweep.hpp"
