(* Chat box (§5.1): "an edit area for composing messages and a scrollable
   area for displaying a list of received messages."

   The room is a Corona group; the transcript is one shared object that
   every message appends to (bcastUpdate), so the server's copy is the
   scrollback. A latecomer joins with [Latest_updates 3] — she only wants
   the last few lines, not the whole history — and a crashed member is
   noticed by everyone through the membership service.

   Run with:  dune exec examples/chat.exe *)

module C = Corona.Client

let () =
  let engine = Sim.Engine.create ~seed:2L () in
  let fabric = Net.Fabric.create engine in
  let server_host = Net.Fabric.add_host fabric ~name:"server" () in
  let storage = Corona.Server_storage.create server_host () in
  let _server = Corona.Server.create fabric server_host ~storage () in
  let say fmt =
    Format.kasprintf
      (fun s -> Format.printf "[%6.3fs] %s@." (Sim.Engine.now engine) s)
      fmt
  in
  let at delay f = ignore (Sim.Engine.schedule engine ~delay f) in

  let chat_ui name client = fun _ -> function
    | C.Delivered u when u.Proto.Types.obj = "transcript" ->
        ignore client;
        say "%-7s sees: %s" name (String.trim u.Proto.Types.data)
    | C.Membership_changed { change; _ } ->
        say "%-7s sees: *** %s" name
          (match change with
          | Proto.Types.Member_joined m -> m.member ^ " entered the room"
          | Proto.Types.Member_left m -> m ^ " left"
          | Proto.Types.Member_crashed m -> m ^ " lost connection")
    | _ -> ()
  in
  let post client line =
    C.bcast_update client ~group:"room" ~obj:"transcript"
      ~data:(Printf.sprintf "<%s> %s\n" (C.member client) line)
      ()
  in
  let connect_user host_name member k =
    let host = Net.Fabric.add_host fabric ~name:host_name ~cpu:Net.Host.sparc20 () in
    C.connect fabric ~host ~server:server_host ~member
      ~on_connected:(fun cl ->
        C.set_on_event cl (chat_ui member cl);
        k (cl, host))
      ~on_failed:(fun () -> say "%s could not connect" member)
      ()
  in

  connect_user "pc-alice" "alice" (fun (alice, _) ->
      C.create_group alice ~group:"room" ~initial:[ ("transcript", "") ]
        ~k:(fun _ -> ()) ();
      C.join alice ~group:"room"
        ~k:(fun _ ->
          connect_user "pc-bob" "bob" (fun (bob, bob_host) ->
              C.join bob ~group:"room"
                ~k:(fun _ ->
                  post alice "hi bob, did the instrument data come in?";
                  at 0.3 (fun () -> post bob "yes, uploading to the viewers now");
                  at 0.6 (fun () -> post alice "great - let's review at 3pm");
                  (* Carol arrives late and asks only for the tail. *)
                  at 1.0 (fun () ->
                      connect_user "pc-carol" "carol" (fun (carol, _) ->
                          C.join carol ~group:"room"
                            ~transfer:(Proto.Types.Latest_updates 3)
                            ~k:(fun _ ->
                              let state =
                                Option.get (C.replica carol "room")
                              in
                              say
                                "carol   joined with the last 3 lines only:";
                              String.split_on_char '\n'
                                (Option.value ~default:""
                                   (Corona.Shared_state.get state "transcript"))
                              |> List.iter (fun l ->
                                     if l <> "" then say "           | %s" l);
                              post carol "just caught up - 3pm works")
                            ()));
                  (* Bob's applet crashes; the room notices. *)
                  at 2.0 (fun () -> Net.Host.crash bob_host))
                ()))
        ());
  Sim.Engine.run engine;
  Format.printf "@.chat example finished (simulated %.3fs)@." (Sim.Engine.now engine)
