(** Minimal ASCII line chart, used to print the Fig. 3 memory-over-time
    traces in the bench output. *)

val line :
  ?width:int ->
  ?height:int ->
  series:(string * (int * float) array) list ->
  unit ->
  string
(** [line ~series ()] plots each named series over a shared time axis
    (x = sample time in seconds, y = value). Each series is drawn with its
    own glyph; a legend and y-axis labels are included. Series may have
    different lengths/time ranges. *)

val downsample : (int * float) array -> max_points:int -> (int * float) array
(** Evenly thin [points] to at most [max_points] (keeps both endpoints),
    so a long trace fits the chart's width. *)
