package synth

import "fmt"

// PaperDims records the dataset dimensions as published in Table IV.
type PaperDims struct {
	DimTheta int
	Nv       int
	Ns       string // per-process spatial mesh size (may be a sweep)
	Nr       int
	Nt       string // may be a sweep
	N        string // total matrix dimension
}

// Spec couples a Table IV dataset with this reproduction's scaled defaults.
// The scaled runs keep the model *structure* (n_v, dim(θ), layer usage,
// partitioning) and shrink n_s/n_t so a single-core container sustains the
// sweep; ScaleNote records the factor.
type Spec struct {
	ID        string
	Purpose   string
	Paper     PaperDims
	Gen       GenConfig
	Workers   []int
	ScaleNote string
}

// String renders a Table IV-style row.
func (s Spec) String() string {
	return fmt.Sprintf("%-4s dim(θ)/nv=%d/%d ns/nr=%s/%d nt=%s N=%s",
		s.ID, s.Paper.DimTheta, s.Paper.Nv, s.Paper.Ns, s.Paper.Nr, s.Paper.Nt, s.Paper.N)
}

// MB1 is the univariate spatio-temporal strong-scaling comparison dataset
// (Fig. 4): paper ns=4002, nt=250, 1–18 GPUs.
func MB1() Spec {
	return Spec{
		ID:      "MB1",
		Purpose: "Fig. 4 strong scaling vs INLA_DIST and R-INLA (S1+S2)",
		Paper: PaperDims{
			DimTheta: 4, Nv: 1, Ns: "4002", Nr: 6, Nt: "250", N: "1 000 506",
		},
		Gen: GenConfig{
			Nv: 1, Nt: 16, Nr: 6,
			MeshNx: 13, MeshNy: 10, // ns = 130
			ObsPerStep: 60,
			Seed:       101,
		},
		Workers:   []int{1, 2, 4, 9, 18},
		ScaleNote: "ns 4002→130, nt 250→16; worker sweep and dim(θ) preserved",
	}
}

// MB2 is the solver weak-scaling microbenchmark dataset (Fig. 5): paper
// ns=1675 with 128 time steps per rank over 1–16 GPUs.
func MB2() Spec {
	return Spec{
		ID:      "MB2",
		Purpose: "Fig. 5 distributed solver weak scaling (PPOBTAF/PPOBTASI/PPOBTAS)",
		Paper: PaperDims{
			DimTheta: 1, Nv: 1, Ns: "1675", Nr: 1, Nt: "128–2048", N: "214 406 – 3 430 406",
		},
		Gen: GenConfig{
			Nv: 1, Nt: 48, Nr: 1, // Nt here = steps per rank
			MeshNx: 8, MeshNy: 8, // ns = 64
			ObsPerStep: 30,
			Seed:       102,
		},
		Workers:   []int{1, 2, 4, 8, 16},
		ScaleNote: "ns 1675→64, steps/rank 128→48",
	}
}

// WA1 is the trivariate weak-scaling-in-time dataset (Fig. 6a): paper 2–512
// time steps on 1–248 GPUs.
func WA1() Spec {
	return Spec{
		ID:      "WA1",
		Purpose: "Fig. 6a weak scaling through the time domain (trivariate)",
		Paper: PaperDims{
			DimTheta: 15, Nv: 3, Ns: "1247", Nr: 1, Nt: "2–512", N: "7 485 – 1 915 395",
		},
		Gen: GenConfig{
			Nv: 3, Nt: 2, Nr: 1, // Nt is the sweep start; drivers scale it
			MeshNx: 6, MeshNy: 5, // ns = 30
			ObsPerStep: 20,
			Seed:       103,
		},
		Workers:   []int{1, 2, 4, 8, 16, 31},
		ScaleNote: "ns 1247→30, nt sweep 2–512→2–32, workers 248→31 (S1 saturation width preserved)",
	}
}

// WA2 is the trivariate weak-scaling-in-space dataset (Fig. 6b): paper mesh
// refinements 72→4485 nodes on 1–496 GPUs.
func WA2() Spec {
	return Spec{
		ID:      "WA2",
		Purpose: "Fig. 6b weak scaling through spatial mesh refinement (trivariate)",
		Paper: PaperDims{
			DimTheta: 15, Nv: 3, Ns: "[72, 282, 1119, 4485]", Nr: 1, Nt: "48", N: "10 371 – 645 843",
		},
		Gen: GenConfig{
			Nv: 3, Nt: 8, Nr: 1,
			MeshNx: 4, MeshNy: 3, // level-0 mesh: ns = 12; levels 12→30→72
			ObsPerStep: 24,
			Seed:       104,
		},
		Workers:   []int{1, 4, 16, 48},
		ScaleNote: "refinement levels 12→30→72 ending at the paper's coarsest (72); nt 48→8; memory-cap model triggers S3 at the finest level",
	}
}

// SA1 is the trivariate strong-scaling dataset (Fig. 7): paper ns=1675,
// nt=192, 1–496 GPUs.
func SA1() Spec {
	return Spec{
		ID:      "SA1",
		Purpose: "Fig. 7 strong scaling at the application level (trivariate)",
		Paper: PaperDims{
			DimTheta: 15, Nv: 3, Ns: "1675", Nr: 1, Nt: "192", N: "964 803",
		},
		Gen: GenConfig{
			Nv: 3, Nt: 16, Nr: 1,
			MeshNx: 6, MeshNy: 5, // ns = 30
			ObsPerStep: 20,
			Seed:       105,
		},
		Workers:   []int{1, 2, 4, 8, 16, 31, 62, 124},
		ScaleNote: "ns 1675→30, nt 192→16, workers 496→124",
	}
}

// AP1 is the air-pollution application dataset (§VI): paper ns=4210, 48
// days, trivariate PM2.5/PM10/O₃ with elevation covariate.
func AP1() Spec {
	return Spec{
		ID:      "AP1",
		Purpose: "§VI air-pollution application: fit, downscale, report posteriors",
		Paper: PaperDims{
			DimTheta: 15, Nv: 3, Ns: "4210", Nr: 2, Nt: "48", N: "606 246",
		},
		Gen: GenConfig{
			Nv: 3, Nt: 8, Nr: 2,
			MeshNx: 8, MeshNy: 6, // ns = 48 over the "northern Italy" box
			Width: 560, Height: 220, // ≈ northern-Italy extent in km
			ObsPerStep: 80,
			Seed:       106,
		},
		Workers:   []int{1},
		ScaleNote: "ns 4210→48, nt 48→8; synthetic CAMS-like field (see README, Substitutions)",
	}
}

// AllSpecs lists every Table IV dataset in paper order.
func AllSpecs() []Spec {
	return []Spec{MB1(), MB2(), WA1(), WA2(), SA1(), AP1()}
}
