// Package mgdiffnet is a from-scratch Go reproduction of "Distributed
// multigrid neural solvers on megavoxel domains" (SC 2021,
// arXiv:2104.14538): a fully convolutional U-Net trained as a neural PDE
// solver for the generalized 3D Poisson equation with a variational FEM
// loss, multigrid-inspired training schedules (V/W/F/Half-V cycles over
// input resolutions), and data-parallel distributed training with
// allreduce gradient averaging.
//
// The public surface lives under internal/ packages wired together by the
// commands in cmd/ and the runnable examples in examples/; see DESIGN.md
// for the paper-to-module inventory and the design choices, and
// bench/README.md for the repository benchmark, where performance is
// measured.
package mgdiffnet
