(** Fault-injection helpers for experiments and tests.

    Thin scheduling wrappers over {!Host} crash/restart and {!Fabric}
    partitions, so scenarios read declaratively. *)

val crash_at : Fabric.t -> Host.t -> at:float -> unit
(** Fail-stop the host at absolute virtual time [at]. *)

val crash_for : Fabric.t -> Host.t -> at:float -> duration:float -> unit
(** Crash at [at], restart at [at +. duration]. *)

val partition_during :
  Fabric.t -> string list list -> at:float -> duration:float -> unit
(** Install a partition at [at] and heal it at [at +. duration]. *)

val flaky_host :
  Fabric.t -> Host.t -> mean_uptime:float -> mean_downtime:float -> unit
(** Crash/restart the host forever with exponentially distributed up and down
    periods drawn from the fabric's deterministic RNG. *)
