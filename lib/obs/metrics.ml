type t = {
  queue_wait : Hist.t;
  service_opt : Exact.t;
  service_gen : Exact.t;
  batch_depth : Exact.t;
  events : (string, Hist.t) Hashtbl.t;
}

let create () =
  {
    queue_wait = Hist.create ();
    service_opt = Exact.create ();
    service_gen = Exact.create ();
    batch_depth = Exact.create ();
    events = Hashtbl.create 16;
  }

let event t name =
  match Hashtbl.find_opt t.events name with
  | Some h -> h
  | None ->
    let h = Hist.create () in
    Hashtbl.replace t.events name h;
    h

let events t =
  Hashtbl.fold (fun name h acc -> (name, h) :: acc) t.events []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let merge_into ~dst src =
  Hist.merge_into ~dst:dst.queue_wait src.queue_wait;
  Exact.merge_into ~dst:dst.service_opt src.service_opt;
  Exact.merge_into ~dst:dst.service_gen src.service_gen;
  Exact.merge_into ~dst:dst.batch_depth src.batch_depth;
  Hashtbl.iter (fun name h -> Hist.merge_into ~dst:(event dst name) h) src.events

let merge_all ts =
  let t = create () in
  List.iter (fun src -> merge_into ~dst:t src) ts;
  t

let reset t =
  Hist.reset t.queue_wait;
  Exact.reset t.service_opt;
  Exact.reset t.service_gen;
  Exact.reset t.batch_depth;
  Hashtbl.iter (fun _ h -> Hist.reset h) t.events
