(** Fan-out buffer pool statistics — with no pool behind them.

    Encodings are sized, never serialized into buffers, so nothing leases
    anything and every counter reads 0. The record stays only because the
    end-to-end benchmark still reports its three [proto.pool_*] metrics
    from it; it goes when the benchmark drops them. *)

type stats = { leases : int; hits : int; high_water : int }
