//! Pins the model structure the PMNF search selects for every function of
//! the LULESH and MILC studies: which terms, with which exponents, and
//! whether they multiply parameters. Coefficients are left out, so a
//! change to the search's arithmetic (how leave-one-out folds are solved)
//! that moves only low digits passes, while one that flips a selection
//! fails here, both with the taint restrictions and without them.

use perf_taint::{model_functions, SessionBuilder};
use pt_apps::AppSpec;
use pt_extrap::SearchSpace;
use pt_measure::{function_sets, run_sweep, Filter, NoiseModel, SweepPoint};
use pt_mpisim::MachineConfig;
use std::collections::BTreeMap;

/// Repetitions per measurement point, as in the paper's experiments.
const REPS: usize = 5;
/// Probe cost charged per instrumented call (seconds).
const PROBE_COST: f64 = 1.0e-6;
/// Seed of the sampled repetitions.
const NOISE_SEED: u64 = 7;

/// Each function's selected terms, one `name: terms` line per function,
/// under the taint restrictions (`restricted`) or the black-box search.
fn selected_terms(app: &AppSpec, size_name: &str, sizes: &[i64], ranks: &[i64]) -> [String; 2] {
    let module = &app.module;
    let session = SessionBuilder::new(module, &app.entry).build();
    let analysis = session
        .taint_run(app.taint_run_params())
        .expect("taint run");
    let model_params = &app.model_params;
    let restrictions = analysis.restrictions(module, model_params);

    let mut points = Vec::new();
    for &p in ranks {
        for &s in sizes {
            points.push(SweepPoint {
                params: app.sweep_params(&[(size_name, s), ("p", p)]),
                machine: MachineConfig::default()
                    .with_ranks(p as u32)
                    .with_ranks_per_node((p as u32).min(36)),
            });
        }
    }
    let filter = Filter::TaintBased {
        relevant: analysis.relevant_functions(module).into_iter().collect(),
    };
    let probe = filter.probe_vector(module, PROBE_COST);
    let profiles = run_sweep(module, analysis.prepared(), &app.entry, &points, &probe, 1);
    let sets = function_sets(
        &profiles,
        model_params,
        REPS,
        &NoiseModel::CLUSTER,
        NOISE_SEED,
    );
    let space = SearchSpace::default();
    [Some(&restrictions), None].map(|restriction| {
        let models = model_functions(&sets, restriction, &space, 0.1);
        render(&models, model_params)
    })
}

fn render(models: &BTreeMap<String, perf_taint::FunctionModel>, names: &[String]) -> String {
    models
        .iter()
        .map(|(name, m)| {
            let terms: Vec<String> = m
                .fitted
                .model
                .terms
                .iter()
                .map(|(_, t)| t.render(names))
                .collect();
            let terms = if terms.is_empty() {
                "constant".to_string()
            } else {
                terms.join(" + ")
            };
            format!("{name}: {terms}\n")
        })
        .collect()
}

#[test]
fn lulesh_selected_model_structures_are_pinned() {
    let [restricted, unrestricted] = selected_terms(
        &pt_apps::lulesh::build(),
        "size",
        &[8, 10, 12],
        &[8, 27, 64],
    );
    assert_eq!(restricted, LULESH_RESTRICTED, "restricted:\n{restricted}");
    assert_eq!(
        unrestricted, LULESH_UNRESTRICTED,
        "unrestricted:\n{unrestricted}"
    );
}

#[test]
fn milc_selected_model_structures_are_pinned() {
    let [restricted, unrestricted] = selected_terms(
        &pt_apps::milc::build(),
        "nx",
        &[8, 12, 16, 24, 32],
        &[4, 8, 16, 32, 64],
    );
    assert_eq!(restricted, MILC_RESTRICTED, "restricted:\n{restricted}");
    assert_eq!(
        unrestricted, MILC_UNRESTRICTED,
        "unrestricted:\n{unrestricted}"
    );
}

const LULESH_RESTRICTED: &str = "\
ApplyAccelerationBoundaryConditionsForNodes: size^0.75·log2(size)^2
ApplyMaterialPropertiesForElems: constant
BuildMesh: size^2.6667
CalcAccelerationForNodes: size^2.25·log2(size)
CalcCharacteristicLengthForElems: size^2.6667·log2(size)
CalcCourantConstraintForElems: size^2.75·log2(size)^2
CalcElemCharacteristicLength: constant
CalcElemFBHourglassForce: constant
CalcElemShapeFunctionDerivatives: constant
CalcElemVelocityGradient: constant
CalcElemVolume: constant
CalcEnergyForElems: size^3
CalcFBHourglassForceForElems: size^2.75 + size^2·log2(size)^2
CalcForceForNodes: size^2·log2(size)^2 + size^2.75
CalcHourglassControlForElems: size^3
CalcHydroConstraintForElems: size^2.75·log2(size)^2
CalcKinematicsForElems: size^2.75·log2(size)
CalcKineticEnergy: size^2.75
CalcLagrangeElements: constant
CalcMonotonicQForElems: constant
CalcMonotonicQGradientsForElems: size^2.6667·log2(size)
CalcMonotonicQHelper: constant
CalcMonotonicQRegionForElems: size^3
CalcNodalMass: size^2.6667
CalcPositionForNodes: size^1.6667·log2(size)^2 + size^2.25
CalcPressureEOSHelper: constant
CalcPressureForElems: size^2.6667·log2(size)
CalcQForElems: constant
CalcSoundSpeedForElems: size·log2(size)^2 + size^1.6667
CalcSoundSpeedHelper: constant
CalcTimeConstraintsForElems: constant
CalcVelocityForNodes: size^2.25·log2(size)^2
CalcVolumeForceForElems: constant
Cbrt: constant
ClampVolume: constant
CommReduceDt: constant
CommSBN: constant
CourantScale: constant
Domain_add_fx: constant
Domain_add_fy: constant
Domain_add_fz: constant
Domain_add_xd: constant
Domain_add_yd: constant
Domain_add_zd: constant
Domain_balance: constant
Domain_cost: constant
Domain_cycle: constant
Domain_delv: constant
Domain_e: constant
Domain_elemMass: constant
Domain_fx: constant
Domain_fy: constant
Domain_fz: constant
Domain_nodalMass: constant
Domain_numElem: constant
Domain_numNode: constant
Domain_numReg: constant
Domain_p: constant
Domain_pres: constant
Domain_q: constant
Domain_regElemSize: constant
Domain_set_cycle: constant
Domain_set_regElemSize: constant
Domain_set_regNumList: constant
Domain_size: constant
Domain_ss: constant
Domain_v: constant
Domain_x: constant
Domain_xd: constant
Domain_xdd: constant
Domain_y: constant
Domain_yd: constant
Domain_ydd: constant
Domain_z: constant
Domain_zd: constant
Domain_zdd: constant
EvalEOSForElems: constant
HydroScale: constant
InitMeshDecomposition: constant
InitStressTermsForElems: size^2.5·log2(size)
InitialConditionsForElems: size^2.6667 + size^2·log2(size)^2
IntegrateStressForElems: size^2.5·log2(size)
LagrangeElements: constant
LagrangeLeapFrog: constant
LagrangeNodal: constant
MPI_Allreduce: p^0.25 + log2(p)^2
MPI_Barrier: p^0.25
MPI_Comm_rank: constant
MPI_Comm_size: constant
MPI_Irecv: log2(p)·size^0.3333 + p^0.25·log2(size)
MPI_Isend: p^0.25·size^1.3333 + log2(p)^2·size^0.75·log2(size)^2
MPI_Waitall: constant
SetupBoundaryConditions: size^3
SetupCommBuffers: size^0.3333
SetupElementConnectivities: size^2.25·log2(size)^2
SetupRegionIndexSet: size^2.75·log2(size)^2
TimeIncrement: constant
UpdateVolumesForElems: size^2.5·log2(size)^2 + size^3·log2(size)
VoluDer: constant
main: constant
";
const LULESH_UNRESTRICTED: &str = "\
ApplyAccelerationBoundaryConditionsForNodes: log2(p) + p^0.25·size^0.75·log2(size)^2
ApplyMaterialPropertiesForElems: size^3·log2(size)^2 + size^2.6667·log2(size)^2
BuildMesh: log2(p) + size^2.75
CalcAccelerationForNodes: size^2.25·log2(size) + p^0.75·size^1.75·log2(size)^2
CalcCharacteristicLengthForElems: p^0.25·size^2.6667·log2(size) + log2(p)^2·size^2.6667·log2(size)
CalcCourantConstraintForElems: log2(p)^2 + size^3·log2(size)^2
CalcElemCharacteristicLength: size^2.5·log2(size) + log2(p)·size^2.75
CalcElemFBHourglassForce: size^2.25·log2(size)^2
CalcElemShapeFunctionDerivatives: size^2.25·log2(size)^2
CalcElemVelocityGradient: size^2.6667·log2(size)
CalcElemVolume: p^0.25·size^2.6667·log2(size) + log2(p)^2·size^3
CalcEnergyForElems: p^0.25·size^3 + log2(p)^2·size^2.25·log2(size)^2
CalcFBHourglassForceForElems: size^2.75 + size^2·log2(size)^2
CalcForceForNodes: size^2·log2(size)^2 + size^2.75
CalcHourglassControlForElems: size^3
CalcHydroConstraintForElems: p^0.25·log2(p)·size^2.6667·log2(size)^2 + p^0.3333·size^3·log2(size)
CalcKinematicsForElems: log2(p) + size^2.75·log2(size)
CalcKineticEnergy: p^0.25 + size^2.75
CalcLagrangeElements: log2(p)^2·log2(size)
CalcMonotonicQForElems: constant
CalcMonotonicQGradientsForElems: size^2.6667·log2(size) + p^0.3333·size^2.6667·log2(size)
CalcMonotonicQHelper: size^2.6667·log2(size)
CalcMonotonicQRegionForElems: p^0.5·log2(p) + size^3
CalcNodalMass: size^2.6667
CalcPositionForNodes: size^1.6667·log2(size)^2 + size^2.25
CalcPressureEOSHelper: size^3·log2(size)^2
CalcPressureForElems: size^2.6667·log2(size) + p^0.25·log2(p)^2·size^3
CalcQForElems: constant
CalcSoundSpeedForElems: size·log2(size)^2 + size^1.6667
CalcSoundSpeedHelper: size^2.75·log2(size)^2
CalcTimeConstraintsForElems: p^0.25 + log2(p)^2
CalcVelocityForNodes: size^3 + p^1.3333·log2(p)^2·size^2.25·log2(size)^2
CalcVolumeForceForElems: log2(p)·size^0.25 + log2(p)^2·size^0.3333
Cbrt: size^0.6667·log2(size)
ClampVolume: size^0.75
CommReduceDt: constant
CommSBN: constant
CourantScale: p^0.25·size^3·log2(size)^2 + log2(p)^2·size^2.6667·log2(size)^2
Domain_add_fx: p^0.25·size^2.5 + log2(p)^2·size^2.6667
Domain_add_fy: size^2.25·log2(size)^2 + size^3
Domain_add_fz: size^1.6667·log2(size)^2
Domain_add_xd: size^2.5·log2(size)^2
Domain_add_yd: size^2.25·log2(size)
Domain_add_zd: size^2·log2(size)^2
Domain_balance: p·log2(p)^2·size^2.5·log2(size) + p^1.5·size^2·log2(size)^2
Domain_cost: p^0.6667·size^0.3333 + p^0.5·log2(p)·log2(size)
Domain_cycle: log2(p)^2 + log2(p)^2·size^2.6667·log2(size)^2
Domain_delv: p^0.25·size^2.75·log2(size) + log2(p)^2·size^3·log2(size)
Domain_e: p^0.25·log2(p)^2 + size^2.75
Domain_elemMass: log2(p)·size^3·log2(size)^2 + log2(p)^2·size^2.6667·log2(size)^2
Domain_fx: p^0.3333·log2(p)·size^3·log2(size) + p^0.5·size^3·log2(size)
Domain_fy: size^2.6667·log2(size)^2
Domain_fz: size^0.75
Domain_nodalMass: size^1.25·log2(size)
Domain_numElem: p^0.6667·log2(p)·size^2 + p^0.3333·log2(p)^2·size^1.5·log2(size)
Domain_numNode: p^3·log2(p)^2·size^2.75·log2(size)^2 + p^2.75·log2(p)^2·size^2.6667·log2(size)^2
Domain_numReg: constant
Domain_p: log2(size)
Domain_pres: size^2.6667·log2(size)^2
Domain_q: size^2.6667
Domain_regElemSize: p^1.25·log2(p)^2 + size^1.75·log2(size)
Domain_set_cycle: log2(p)·size^2.75 + log2(p)^2·size^2.5·log2(size)
Domain_set_regElemSize: size^0.3333
Domain_set_regNumList: size^3·log2(size)^2
Domain_size: p^3·log2(p)^2·size^1.6667 + p^2.75·log2(p)^2·size^1.25·log2(size)
Domain_ss: p^0.25·size^2.5 + log2(p)^2·size^2.25·log2(size)
Domain_v: size^1.75·log2(size)^2 + p^0.25·log2(p)·size^2.5
Domain_x: p^0.25·log2(p)^2 + size^2.25·log2(size)
Domain_xd: size^2.6667·log2(size) + p^0.25·log2(p)·size^2.5·log2(size)^2
Domain_xdd: p^0.25·size^1.75 + log2(p)^2·size^1.5·log2(size)
Domain_y: log2(p)^2 + size^2·log2(size)^2
Domain_yd: size^2.25·log2(size) + log2(p)^2·size^2.6667
Domain_ydd: size^1.6667 + size·log2(size)^2
Domain_z: size^2.5·log2(size)
Domain_zd: size^2.5 + p^0.75·log2(p)^2·size^1.6667·log2(size)^2
Domain_zdd: p^0.25·size^2.6667·log2(size)^2 + log2(p)^2·size^3·log2(size)^2
EvalEOSForElems: log2(p)
HydroScale: log2(p)·size^2.6667·log2(size)^2 + log2(p)^2·size^2.75·log2(size)^2
InitMeshDecomposition: p^0.5·size·log2(size) + p^0.25·log2(p)·size^0.6667·log2(size)^2
InitStressTermsForElems: size^2.5·log2(size)
InitialConditionsForElems: log2(p) + size^2·log2(size)^2
IntegrateStressForElems: p^0.25·size^2.5·log2(size) + log2(p)^2·size^2.5·log2(size)
LagrangeElements: constant
LagrangeLeapFrog: p^0.5·size + p^0.25·log2(p)·size^0.75·log2(size)
LagrangeNodal: p^0.25 + log2(p)^2
MPI_Allreduce: log2(p)·size^0.3333 + p^0.25·log2(size)
MPI_Barrier: p^0.25·log2(size) + p^0.25·size^0.3333
MPI_Comm_rank: p^0.5·size + p^0.25·log2(p)·size^0.75·log2(size)
MPI_Comm_size: p^1.25·size^3·log2(size)^2
MPI_Irecv: log2(p)·size^0.3333 + p^0.25·log2(size)
MPI_Isend: p^0.25·size^1.3333 + log2(p)^2·size^0.75·log2(size)^2
MPI_Waitall: p^0.25·size^0.25 + log2(p)^2·log2(size)
SetupBoundaryConditions: size^3
SetupCommBuffers: log2(p)^2·log2(size) + log2(p)^2·size^0.3333
SetupElementConnectivities: size^2.25·log2(size)^2
SetupRegionIndexSet: size^2.75·log2(size)^2
TimeIncrement: p^0.6667·log2(p)^2
UpdateVolumesForElems: size^2.5·log2(size)^2 + size^3·log2(size)
VoluDer: p^0.25·size^2.5·log2(size)^2 + log2(p)^2·size^3·log2(size)
main: constant
";
const MILC_RESTRICTED: &str = "\
MPI_Allgather: p^0.25 + nx^1.3333
MPI_Allreduce: p^0.25 + p^0.3333
MPI_Barrier: log2(p) + p^0.3333
MPI_Bcast: p^0.25 + p^0.3333
MPI_Comm_rank: constant
MPI_Comm_size: constant
MPI_Irecv: log2(p)
MPI_Isend: log2(p)
MPI_Reduce: log2(p)
MPI_Waitall: constant
add_force_to_mom: log2(p)·nx^0.25·log2(nx)^2 + p^0.25·nx^0.25·log2(nx)^2
add_su3_matrix: constant
apply_fn_matrix: log2(p)·nx + p^0.25·nx
boundary_twist: nx^0.6667 + p^0.6667·log2(p)·nx^0.3333·log2(nx)
broadcast_bytes: constant
broadcast_float: p^0.25·log2(p)^2
check_unitarity: log2(p)·nx^0.6667·log2(nx) + p^0.25·nx^0.6667·log2(nx)
cleanup_gather: constant
clear_latvec: log2(p)·nx + p^0.25·nx
compute_gen_staple: log2(p)·nx + p^0.25·nx
coordinate_fill: log2(p)·nx^0.3333·log2(nx)^2 + p^0.25·nx^0.3333·log2(nx)^2
copy_latvec: log2(p)·nx + p^0.25·nx
custom_gauge_action: log2(p)·nx·log2(nx) + p^0.25·nx^0.75·log2(nx)^2
d_plaquette: log2(p)·nx·log2(nx) + p^0.25·nx^0.75·log2(nx)^2
do_gather: p^0.25 + p^0.3333
dot_product_lat: log2(p)·nx^0.6667·log2(nx) + p^0.25·nx^0.6667·log2(nx)
dslash_fn_field: log2(p)·nx^0.75·log2(nx) + p^0.25·nx^0.75·log2(nx)
eo_fermion_force_oneterm: log2(p)·nx + p^0.25·nx
eo_fermion_force_twoterms: log2(p)·nx + p^0.25·nx
f_meas_imp: constant
fn_fermion_force_dir: log2(p)·nx + p^0.25·nx
g_complexsum: constant
g_doublesum: constant
g_floatsum: constant
g_sync: constant
g_vecdoublesum: log2(p) + p^0.25
gauge_field_copy: log2(p)·nx + p^0.25·nx
gauge_fix_step: p^2.25·log2(p) + p^2·log2(p)^2
gauge_force_imp_dir: log2(p)·nx^0.6667·log2(nx) + p^0.25·nx^0.6667·log2(nx)
gaussian_rand_no: constant
grsource_imp: log2(p)·nx + p^0.25·nx
hvy_pot: log2(p)·nx^0.6667·log2(nx)^2 + p^0.25·nx·log2(nx)
imp_gauge_force: log2(p)·nx + p^0.25·nx
initialize_fields: nx^1.5·log2(nx)^2 + p^0.6667·nx^2
ks_congrad: constant
lattice_beta: constant
lattice_mass: constant
lattice_niter: constant
lattice_nt: constant
lattice_p: constant
lattice_sites: constant
lattice_steps: constant
lattice_u0: constant
load_fatlinks: constant
load_longlinks: constant
main: constant
make_ahmat: constant
make_anti_hermitian_field: log2(p)·nx^1.3333 + p^0.25·nx^1.3333
make_lattice: log2(p)·nx^1.25 + p^0.25·nx·log2(nx)
make_nn_gathers: log2(p)·nx^1.3333 + p^0.25·nx^1.3333
momentum_twist: log2(p)·log2(nx)^2 + p^0.25·nx^0.3333·log2(nx)
mult_su3_an: constant
mult_su3_mat_vec: constant
mult_su3_mat_vec_sum_4dir: constant
mult_su3_na: constant
mult_su3_nn: constant
neighbor_coords_special: constant
node_index: constant
path_product: log2(p)·nx^0.75·log2(nx) + p^0.25·nx^0.75·log2(nx)
plaquette: log2(p)·nx + p^0.25·nx
ploop: p^0.25·nx^2.75·log2(nx)^2 + p^0.3333·nx^3·log2(nx)
ranmom: log2(p)·nx^1.3333 + p^0.25·nx^0.75·log2(nx)^2
realtrace_su3: constant
reduce_double_vector: constant
relax_lattice: log2(p)·log2(nx) + p^0.25·nx^0.3333
rephase: log2(p)·nx^1.25 + p^0.25·nx·log2(nx)
rephase_field_offset: p + p^0.75·log2(p)
residue_norm: log2(p)·nx + p^0.25·nx
restart_gather: constant
reunit_su3: constant
reunitarize: log2(p)·nx + p^0.25·nx
scalar_mult_add_latvec: log2(p)·nx^0.6667·log2(nx) + p^0.25·nx^0.6667·log2(nx)
scalar_mult_add_su3_matrix: constant
scalar_mult_latvec: log2(p)·nx^0.6667·log2(nx) + p^0.25·nx^0.6667·log2(nx)
set_lattice_fields: log2(p)·nx^0.25·log2(nx)^2 + p^0.25·nx^0.25·log2(nx)^2
setup_layout: constant
smear_level_1: log2(p)·nx^0.75·log2(nx) + p^0.25·nx^0.75·log2(nx)
smear_level_2: log2(p)·nx + p^0.25·nx
start_gather_field: constant
start_gather_site: constant
su3_projector: constant
sum_staples: log2(p)·nx + p^0.25·nx
uncompress_anti_hermitian: constant
update: constant
update_h: constant
update_u: log2(p)·nx + p^0.25·nx
wait_gather: constant
";
const MILC_UNRESTRICTED: &str = "\
MPI_Allgather: p^0.25 + nx^1.3333
MPI_Allreduce: p^0.25 + p^0.3333
MPI_Barrier: log2(p) + p^0.3333
MPI_Bcast: log2(p) + log2(nx)
MPI_Comm_rank: constant
MPI_Comm_size: p^0.25·nx^0.25 + p^0.3333·log2(nx)
MPI_Irecv: log2(p)
MPI_Isend: log2(p)
MPI_Reduce: log2(p) + nx^3·log2(nx)
MPI_Waitall: p^0.25 + p^0.3333
add_force_to_mom: log2(p)·nx^0.25·log2(nx)^2 + p^0.25·nx^0.25·log2(nx)^2
add_su3_matrix: p^1.3333·log2(p)·nx^0.3333 + p^1.5·log2(p)·log2(nx)
apply_fn_matrix: log2(p)·nx + p^0.25·nx
boundary_twist: nx^0.6667 + p^0.6667·log2(p)·nx^0.3333·log2(nx)
broadcast_bytes: nx^3·log2(nx)^2 + nx^2.75·log2(nx)^2
broadcast_float: p^0.25·log2(p)^2·nx^2.75·log2(nx)^2 + p^0.25·log2(p)^2·nx^2.6667·log2(nx)^2
check_unitarity: log2(p)·nx^0.6667·log2(nx) + p^0.25·nx^0.6667·log2(nx)
cleanup_gather: constant
clear_latvec: log2(p)·nx + p^0.25·nx
compute_gen_staple: log2(p)·nx + p^0.25·nx
coordinate_fill: log2(p)·nx^0.3333·log2(nx)^2 + p^0.25·nx^0.3333·log2(nx)^2
copy_latvec: log2(p)·nx + p^0.25·nx
custom_gauge_action: log2(p)·nx·log2(nx) + p^0.25·nx^0.75·log2(nx)^2
d_plaquette: log2(p)·nx·log2(nx) + p^0.25·nx^0.75·log2(nx)^2
do_gather: p^0.25 + p^0.3333
dot_product_lat: log2(p)·nx^0.6667·log2(nx) + p^0.25·nx^0.6667·log2(nx)
dslash_fn_field: log2(p)·nx^0.75·log2(nx) + p^0.25·nx^0.75·log2(nx)
eo_fermion_force_oneterm: log2(p)·nx + p^0.25·nx
eo_fermion_force_twoterms: log2(p)·nx + p^0.25·nx
f_meas_imp: p^0.25·log2(p)
fn_fermion_force_dir: log2(p)·nx + p^0.25·nx
g_complexsum: constant
g_doublesum: p^1.75·log2(p)^2·nx^0.25·log2(nx)^2 + p^1.75·log2(p)^2·nx^0.6667·log2(nx)
g_floatsum: constant
g_sync: constant
g_vecdoublesum: log2(p) + p^0.25
gauge_field_copy: log2(p)·nx + p^0.25·nx
gauge_fix_step: p^2.25·log2(p) + p^2·log2(p)^2
gauge_force_imp_dir: log2(p)·nx^0.6667·log2(nx) + p^0.25·nx^0.6667·log2(nx)
gaussian_rand_no: constant
grsource_imp: log2(p)·nx + p^0.25·nx
hvy_pot: log2(p)·nx^0.6667·log2(nx)^2 + p^0.25·nx·log2(nx)
imp_gauge_force: log2(p)·nx + p^0.25·nx
initialize_fields: nx^1.5·log2(nx)^2 + p^0.6667·nx^2
ks_congrad: log2(p)·log2(nx) + p^0.25·nx^0.25
lattice_beta: log2(nx) + nx^0.25
lattice_mass: p^2.75·log2(nx) + p^2.25·log2(p)^2·nx^0.3333
lattice_niter: nx^2.25·log2(nx)^2 + nx^2.5·log2(nx)
lattice_nt: log2(p)·nx^0.5·log2(nx)^2 + p^0.3333·nx^0.5·log2(nx)^2
lattice_p: p^0.25·log2(nx)
lattice_sites: p^0.3333·log2(p)^2 + p^0.5·log2(p)
lattice_steps: p^3·log2(p)·nx^0.3333 + p^2.75·log2(p)^2·log2(nx)
lattice_u0: constant
load_fatlinks: nx^1.25·log2(nx)^2
load_longlinks: log2(p)·nx^3·log2(nx)^2 + p^0.25·nx^3·log2(nx)
main: p^0.25·log2(nx)
make_ahmat: p^0.3333
make_anti_hermitian_field: log2(p)·nx^1.3333 + p^0.25·nx^1.3333
make_lattice: log2(p)·nx^1.25 + p^0.25·nx·log2(nx)
make_nn_gathers: log2(p)·nx^1.3333 + p^0.25·nx^1.3333
momentum_twist: log2(p)·log2(nx)^2 + p^0.25·nx^0.3333·log2(nx)
mult_su3_an: p^0.25·log2(p)^2·log2(nx) + p^0.3333·log2(p)^2·nx^0.25
mult_su3_mat_vec: constant
mult_su3_mat_vec_sum_4dir: log2(p)
mult_su3_na: p^0.25·nx^0.25 + p^0.3333·log2(nx)
mult_su3_nn: constant
neighbor_coords_special: constant
node_index: constant
path_product: log2(p)·nx^0.75·log2(nx) + p^0.25·nx^0.75·log2(nx)
plaquette: log2(p)·nx + p^0.25·nx
ploop: p^0.25·nx^2.75·log2(nx)^2 + p^0.3333·nx^3·log2(nx)
ranmom: log2(p)·nx^1.3333 + p^0.25·nx^0.75·log2(nx)^2
realtrace_su3: p^2.75·log2(p)^2·nx^2.5·log2(nx) + p^3·log2(p)·nx^2.25·log2(nx)^2
reduce_double_vector: log2(nx)
relax_lattice: log2(p)·log2(nx) + p^0.25·nx^0.3333
rephase: log2(p)·nx^1.25 + p^0.25·nx·log2(nx)
rephase_field_offset: p + p^0.75·log2(p)
residue_norm: log2(p)·nx + p^0.25·nx
restart_gather: p^0.3333
reunit_su3: nx^0.25 + nx^0.3333
reunitarize: log2(p)·nx + p^0.25·nx
scalar_mult_add_latvec: log2(p)·nx^0.6667·log2(nx) + p^0.25·nx^0.6667·log2(nx)
scalar_mult_add_su3_matrix: p^0.3333·nx^0.25 + p^0.3333·nx^0.3333
scalar_mult_latvec: log2(p)·nx^0.6667·log2(nx) + p^0.25·nx^0.6667·log2(nx)
set_lattice_fields: log2(p)·nx^0.25·log2(nx)^2 + p^0.25·nx^0.25·log2(nx)^2
setup_layout: constant
smear_level_1: log2(p)·nx^0.75·log2(nx) + p^0.25·nx^0.75·log2(nx)
smear_level_2: log2(p)·nx + p^0.25·nx
start_gather_field: log2(p)
start_gather_site: constant
su3_projector: log2(nx)
sum_staples: log2(p)·nx + p^0.25·nx
uncompress_anti_hermitian: constant
update: constant
update_h: constant
update_u: log2(p)·nx + p^0.25·nx
wait_gather: log2(p)·nx^3·log2(nx)^2 + p^0.3333·nx^3·log2(nx)^2
";
