(** Checkpoint, resume, and cross-machine migration of a Graphene
    picoprocess (paper §6.1).

    A checkpoint is little more than a guest memory dump plus the libOS
    state record ({!Graphene_liblinux.Ckpt}): the machine image, the
    descriptor table (by reopen info), signal state, the coordination
    state, and the resident private pages. Live streams cannot migrate;
    their descriptors restore to closed ends, as with a real network
    endpoint after migration.

    The process must be quiescent — parked in a [pause] system call —
    when checkpointed; it resumes as if pause returned 0. *)

open Graphene_sim
module K = Graphene_host.Kernel
module Memory = Graphene_host.Memory
module Pal = Graphene_pal.Pal
module Seccomp = Graphene_bpf.Seccomp
module Interp = Graphene_guest.Interp
module Ast = Graphene_guest.Ast
module Lx = Graphene_liblinux.Lx
module Posix = Graphene_liblinux.Posix
module Ckpt = Graphene_liblinux.Ckpt

let gbit_per_s = 125_000_000. (* bytes per second on a 1 Gb link *)

(* Collect the resident private pages (heap, mmap, stack): the guest
   memory dump part of the checkpoint. *)
let dump_private_pages (pico : K.pico) =
  let page = Memory.page_size in
  List.concat_map
    (fun r ->
      match Memory.region_kind r with
      | Memory.Heap | Memory.Mmap | Memory.Stack ->
        let base = Memory.region_base r in
        List.filter_map
          (fun i ->
            let addr = base + (i * page) in
            (* only resident pages are part of the dump; clean, never-
               touched pages restore as zero-fill on demand *)
            if Memory.resident pico.K.aspace addr then
              try Some (addr, Memory.read_bytes pico.K.aspace addr page)
              with Memory.Fault _ -> None
            else None)
          (List.init (Memory.region_npages r) Fun.id)
      | Memory.Pal_code | Memory.Libos_image | Memory.App_image -> [])
    (Memory.regions pico.K.aspace)

exception Not_quiescent

(* Build the checkpoint record of a process parked in [pause]. *)
let checkpoint (lx : Lx.t) =
  if Lx.exited lx then raise Not_quiescent;
  let th =
    match lx.Posix.main_thread with Some th -> th | None -> raise Not_quiescent
  in
  let machine =
    match th.K.machine with
    | Some m -> ( try Interp.resume m (Ast.Vint 0) with Invalid_argument _ -> raise Not_quiescent)
    | None -> raise Not_quiescent
  in
  let heap_pages = dump_private_pages (Lx.pico lx) in
  let record, _slots = Lx.build_ckpt lx ~machine ~heap_pages in
  { record with Ckpt.c_regions = Lx.private_regions lx }

let checkpoint_cost record =
  let bytes = Ckpt.size record in
  Time.add Cost.ckpt_fixed
    (Time.ns (int_of_float (Cost.ckpt_per_byte *. float_of_int bytes)))

let resume_cost record =
  let bytes = Ckpt.size record in
  Time.add Cost.resume_fixed
    (Time.ns (int_of_float (Cost.resume_per_byte *. float_of_int bytes)))

(* Checkpoint a quiescent process to a host file, stopping it. The
   returned size is what crosses the network on migration. *)
let checkpoint_to_file lx ~path k =
  let kernel = Lx.kernel lx in
  let record = checkpoint lx in
  let bytes = Ckpt.to_bytes record in
  K.after kernel (checkpoint_cost record) (fun () ->
      Graphene_host.Vfs.write_string kernel.K.fs path bytes;
      Lx.do_exit lx 0;
      k (record, String.length bytes))

(* Resume a checkpoint in a fresh picoprocess (same or new sandbox).
   Returns the new libOS instance; the guest continues as if its
   [pause] returned 0. *)
let resume ?(cfg = Graphene_ipc.Config.default ()) ?console_hook kernel ~record ~sandbox () =
  let pico = K.spawn kernel ~sandbox ~exe:record.Ckpt.c_exe () in
  K.install_filter kernel pico (Seccomp.graphene_filter ~pal_lo:K.pal_base ~pal_hi:K.pal_limit);
  let pal = Pal.create kernel pico in
  Lx.finish_restore ~restore_cost:(resume_cost record) ~kern:kernel ~pal ~cfg ~console_hook
    record []

let resume_from_file ?cfg ?console_hook kernel ~path ~sandbox () =
  let bytes = Graphene_host.Vfs.read_string kernel.K.fs path in
  match Ckpt.of_bytes bytes with
  | Error e -> Error e
  | Ok record -> Ok (resume ?cfg ?console_hook kernel ~record ~sandbox ())

(* Migration = checkpoint + copy over the network + resume. The copy
   cost models a 1 Gb link, like moving between the paper's testbed
   machines. *)
let migrate ?cfg ?console_hook lx ~k =
  let kernel = Lx.kernel lx in
  checkpoint_to_file lx ~path:"/var/graphene/migration.ckpt" (fun (_record, size) ->
      let copy = Time.s (float_of_int size /. gbit_per_s) in
      K.after kernel copy (fun () ->
          let sandbox = K.fresh_sandbox kernel in
          match resume_from_file ?cfg ?console_hook kernel ~path:"/var/graphene/migration.ckpt" ~sandbox () with
          | Ok lx -> k (Ok (lx, size))
          | Error e -> k (Error e)))

(* {1 The KVM comparison points (Table 4)}

   A VM checkpoint writes the whole RAM image; times follow from the
   image size and the measured per-byte rates. *)

module Vm = struct
  let checkpoint_size (vm : Graphene_baseline.Native.vm) = vm.Graphene_baseline.Native.ckpt_image

  let checkpoint_time vm =
    Time.ns
      (int_of_float (Cost.kvm_checkpoint_per_byte *. float_of_int (checkpoint_size vm)))

  let resume_time vm =
    Time.ns (int_of_float (Cost.kvm_resume_per_byte *. float_of_int (checkpoint_size vm)))
end
