type 'a entry = { size : int; value : 'a }

type 'a t = {
  disk : Disk.t;
  name : string;
  durable : (string, 'a entry) Hashtbl.t;
  mutable save_seq : int;
}

let create disk ~name = { disk; name; durable = Hashtbl.create 16; save_seq = 0 }

let save t ~key ~size value ~on_durable =
  t.save_seq <- t.save_seq + 1;
  (* Disk writes complete in FIFO order, so the latest save for a key is
     always the last to land. *)
  Disk.write t.disk ~size ~on_durable:(fun () ->
      Hashtbl.replace t.durable key { size; value };
      on_durable ())

let load t ~key = Option.map (fun e -> e.value) (Hashtbl.find_opt t.durable key)

let delete t ~key = Hashtbl.remove t.durable key

let keys t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.durable [] |> List.sort compare
