/**
 * @file
 * Test oracle: the scalar per-core training kernel (see
 * scalar_kernel.cc). Not part of the library — production launches
 * run swiftrl::runTrainingKernelBatch; the tests compare the two.
 */

#ifndef SWIFTRL_TESTS_ORACLE_SCALAR_KERNEL_HH
#define SWIFTRL_TESTS_ORACLE_SCALAR_KERNEL_HH

#include "pimsim/kernel_context.hh"
#include "swiftrl/pim_kernels.hh"

namespace swiftrl::oracle {

/**
 * Train one core's chunk: executed once per core, charging every
 * priced op through @p ctx as it runs. Instantiated for both
 * ChargePolicy flavours of pimsim::BasicKernelContext.
 */
template <typename Ctx>
void runTrainingKernel(Ctx &ctx, const KernelParams &params);

} // namespace swiftrl::oracle

#endif // SWIFTRL_TESTS_ORACLE_SCALAR_KERNEL_HH
