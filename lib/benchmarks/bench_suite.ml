type paper_method =
  | Solved of { states : int option; signals : int; area : int; time : float }
  | Abort of float option
  | Error

type paper_row = {
  initial_states : int;
  initial_signals : int;
  ours : paper_method;
  vanbekbergen : paper_method;
  lavagno : paper_method;
}

type entry = { name : string; build : unit -> Stg.t; paper : paper_row }

let row ~st ~sg ~ours ~vb ~lv =
  { initial_states = st; initial_signals = sg; ours; vanbekbergen = vb; lavagno = lv }

let s ?states ~signals ~area ~time () = Solved { states; signals; area; time }

(* Table 1, verbatim. *)
let paper_rows : (string * paper_row) list =
  [
    ( "mr0",
      row ~st:302 ~sg:11
        ~ours:(s ~states:469 ~signals:14 ~area:41 ~time:2.80 ())
        ~vb:(Abort (Some 3600.))
        ~lv:(s ~signals:13 ~area:86 ~time:1084.5 ()) );
    ( "mr1",
      row ~st:190 ~sg:8
        ~ours:(s ~states:373 ~signals:12 ~area:55 ~time:1.73 ())
        ~vb:(Abort (Some 872.9))
        ~lv:(s ~signals:10 ~area:53 ~time:237.5 ()) );
    ( "mmu0",
      row ~st:174 ~sg:8
        ~ours:(s ~states:441 ~signals:11 ~area:49 ~time:0.87 ())
        ~vb:(Abort (Some 406.3)) ~lv:Error );
    ( "mmu1",
      row ~st:82 ~sg:8
        ~ours:(s ~states:131 ~signals:10 ~area:50 ~time:0.37 ())
        ~vb:(Abort (Some 101.3))
        ~lv:(s ~signals:10 ~area:37 ~time:47.8 ()) );
    ( "sbuf-ram-write",
      row ~st:58 ~sg:10
        ~ours:(s ~states:93 ~signals:12 ~area:59 ~time:0.36 ())
        ~vb:(s ~states:90 ~signals:12 ~area:74 ~time:5.21 ())
        ~lv:(s ~signals:12 ~area:35 ~time:54.6 ()) );
    ( "vbe4a",
      row ~st:58 ~sg:6
        ~ours:(s ~states:106 ~signals:8 ~area:37 ~time:0.19 ())
        ~vb:(s ~states:116 ~signals:8 ~area:40 ~time:0.25 ())
        ~lv:(s ~signals:8 ~area:41 ~time:5.5 ()) );
    ( "nak-pa",
      row ~st:56 ~sg:9
        ~ours:(s ~states:59 ~signals:10 ~area:25 ~time:0.20 ())
        ~vb:(s ~states:58 ~signals:10 ~area:32 ~time:0.08 ())
        ~lv:(s ~signals:10 ~area:41 ~time:20.8 ()) );
    ( "pe-rcv-ifc-fc",
      row ~st:46 ~sg:8
        ~ours:(s ~states:50 ~signals:9 ~area:48 ~time:0.24 ())
        ~vb:(s ~states:53 ~signals:9 ~area:50 ~time:0.13 ())
        ~lv:(s ~signals:9 ~area:62 ~time:14.3 ()) );
    ( "ram-read-sbuf",
      row ~st:36 ~sg:10
        ~ours:(s ~states:44 ~signals:11 ~area:28 ~time:0.15 ())
        ~vb:(s ~states:53 ~signals:11 ~area:44 ~time:0.06 ())
        ~lv:(s ~signals:11 ~area:23 ~time:65.2 ()) );
    ( "alex-nonfc",
      row ~st:24 ~sg:6
        ~ours:(s ~states:31 ~signals:7 ~area:26 ~time:0.05 ())
        ~vb:(s ~states:28 ~signals:7 ~area:22 ~time:0.03 ())
        ~lv:Error );
    ( "sbuf-send-pkt2",
      row ~st:21 ~sg:6
        ~ours:(s ~states:26 ~signals:7 ~area:20 ~time:0.04 ())
        ~vb:(s ~states:27 ~signals:7 ~area:29 ~time:0.04 ())
        ~lv:(s ~signals:7 ~area:14 ~time:8.6 ()) );
    ( "sbuf-send-ctl",
      row ~st:20 ~sg:6
        ~ours:(s ~states:32 ~signals:8 ~area:33 ~time:0.09 ())
        ~vb:(s ~states:28 ~signals:8 ~area:35 ~time:0.03 ())
        ~lv:(s ~signals:8 ~area:43 ~time:3.4 ()) );
    ( "atod",
      row ~st:20 ~sg:6
        ~ours:(s ~states:26 ~signals:7 ~area:15 ~time:0.02 ())
        ~vb:(s ~states:24 ~signals:7 ~area:16 ~time:0.01 ())
        ~lv:(s ~signals:7 ~area:19 ~time:2.9 ()) );
    ( "pa",
      row ~st:18 ~sg:4
        ~ours:(s ~states:34 ~signals:6 ~area:18 ~time:0.12 ())
        ~vb:(s ~states:31 ~signals:6 ~area:22 ~time:0.06 ())
        ~lv:Error );
    ( "alloc-outbound",
      row ~st:17 ~sg:7
        ~ours:(s ~states:29 ~signals:9 ~area:33 ~time:0.09 ())
        ~vb:(s ~states:24 ~signals:9 ~area:27 ~time:0.04 ())
        ~lv:(s ~signals:9 ~area:23 ~time:2.5 ()) );
    ( "wrdata",
      row ~st:16 ~sg:4
        ~ours:(s ~states:20 ~signals:5 ~area:17 ~time:0.03 ())
        ~vb:(s ~states:19 ~signals:5 ~area:18 ~time:0.01 ())
        ~lv:(s ~signals:5 ~area:21 ~time:0.9 ()) );
    ( "fifo",
      row ~st:16 ~sg:4
        ~ours:(s ~states:23 ~signals:5 ~area:15 ~time:0.03 ())
        ~vb:(s ~states:20 ~signals:5 ~area:17 ~time:0.02 ())
        ~lv:(s ~signals:5 ~area:15 ~time:0.7 ()) );
    ( "sbuf-read-ctl",
      row ~st:14 ~sg:6
        ~ours:(s ~states:18 ~signals:7 ~area:16 ~time:0.06 ())
        ~vb:(s ~states:16 ~signals:7 ~area:20 ~time:0.01 ())
        ~lv:(s ~signals:7 ~area:15 ~time:1.5 ()) );
    ( "nouse",
      row ~st:12 ~sg:3
        ~ours:(s ~states:16 ~signals:4 ~area:12 ~time:0.01 ())
        ~vb:(s ~states:16 ~signals:4 ~area:12 ~time:0.01 ())
        ~lv:(s ~signals:4 ~area:14 ~time:0.5 ()) );
    ( "vbe-ex2",
      row ~st:8 ~sg:2
        ~ours:(s ~states:12 ~signals:4 ~area:18 ~time:0.08 ())
        ~vb:(s ~states:12 ~signals:4 ~area:18 ~time:0.03 ())
        ~lv:(s ~signals:4 ~area:21 ~time:0.5 ()) );
    ( "nousc-ser",
      row ~st:8 ~sg:3
        ~ours:(s ~states:10 ~signals:4 ~area:9 ~time:0.02 ())
        ~vb:(s ~states:10 ~signals:4 ~area:9 ~time:0.01 ())
        ~lv:(s ~signals:4 ~area:11 ~time:0.4 ()) );
    ( "sendr-done",
      row ~st:7 ~sg:3
        ~ours:(s ~states:10 ~signals:4 ~area:8 ~time:0.02 ())
        ~vb:(s ~states:10 ~signals:4 ~area:8 ~time:0.01 ())
        ~lv:(s ~signals:4 ~area:6 ~time:0.4 ()) );
    ( "vbe-ex1",
      row ~st:5 ~sg:2
        ~ours:(s ~states:8 ~signals:3 ~area:7 ~time:0.01 ())
        ~vb:(s ~states:8 ~signals:3 ~area:7 ~time:0.01 ())
        ~lv:(s ~signals:3 ~area:7 ~time:0.3 ()) );
  ]

let all =
  List.map
    (fun (name, paper) ->
      let build =
        match List.assoc_opt name Bench_data.all with
        | Some b -> b
        | None -> invalid_arg ("Bench_suite: no data/" ^ name ^ ".g")
      in
      { name; build; paper })
    paper_rows

let find name = List.find (fun e -> e.name = name) all
let names = List.map (fun e -> e.name) all
