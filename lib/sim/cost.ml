(* Calibration notes live in the interface; values here compose along
   the simulated code paths to the paper's measurements. *)

let interp_step = Time.ns 2
let host_syscall_entry = Time.ns 40
let libos_call = Time.ns 10
let seccomp_insn = Time.ns 2

let host_read_base = Time.ns 50
let host_write_base = Time.ns 70
let byte_copy = 0.05
let copy_cost n = Time.ns (int_of_float (Float.round (byte_copy *. float_of_int n)))
let host_open = Time.ns 600
let path_component = Time.ns 120
let dcache_hit = Time.ns 40
let dcache_neg_hit = Time.ns 35
let libos_path_resolution = Time.ns 2_680
let libos_path_fast = Time.ns 350
let lsm_path_check = Time.ns 1_560
let refmon_cache_hit = Time.ns 60
let lease_probe = Time.ns 25
let sem_fast_op = Time.ns 90
let vdso_call = Time.ns 30
let ring_submit = Time.ns 150
let ring_sqe = Time.ns 20
let host_time_query = Time.ns 25
let pal_random_read = Time.ns 200
let pal_icache_flush = Time.ns 50
let native_sched_yield = Time.ns 100
let lsm_socket_check = Time.ns 660
let lsm_sock_op_check = Time.ns 165
let lsm_fd_check = Time.ns 420
let select_base = Time.us 10.87
let select_pal_translation = Time.us 6.15
let epoll_op = Time.ns 450
let epoll_wait_base = Time.us 2.1
let epoll_ready_event = Time.ns 180
let stream_oneway = Time.us 2.3
let stream_connect = Time.us 1_500.
let tcp_connect = Time.us 120.

let native_sig_install = Time.ns 110
let libos_sig_install = Time.ns 200
let native_self_signal = Time.ns 790
let libos_self_signal = Time.ns 330
let helper_dispatch = Time.us 22.0
let rpc_handler = Time.us 5.0

let native_process_start = Time.us 208.
let native_fork = Time.us 67.
let native_exec = Time.us 164.
let picoprocess_spawn = Time.us 77.
let pal_load = Time.us 520.
let ckpt_fixed = Time.us 50.
let ckpt_per_byte = 0.97
let resume_fixed = Time.us 100.
let resume_per_byte = 3.42
let bulk_ipc_setup = Time.us 18.
let bulk_ipc_per_page = Time.ns 150
let cow_fault = Time.ns 900

let kvm_boot = Time.s 3.3
let kvm_checkpoint_per_byte = 9.4
let kvm_resume_per_byte = 10.9
let virtio_net_overhead = Time.us 2.5
let kvm_syscall_overhead = Time.ns 100

let page_size = 4096
let kvm_min_ram = 128 * 1024 * 1024
let qemu_device_overhead = 25 * 1024 * 1024

let pingpong_base = Time.us 150.
let pingpong_contention = Time.us 55.
let rpc_pingpong_extra = Time.us 80.
let numa_noise_above = 24
